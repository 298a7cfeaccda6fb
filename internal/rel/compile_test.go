package rel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// relFingerprint flattens a relation — schema, computed defs, tuples, and
// per-row provenance — for exact equality checks across execution modes.
func relFingerprint(t testing.TB, r *Relation) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(r.schema.String())
	b.WriteString("|")
	for _, c := range r.computed {
		fmt.Fprintf(&b, "%s=%s:%s;", c.Name, c.Expr, c.Kind)
	}
	b.WriteString("|")
	for i := 0; i < r.Len(); i++ {
		base, row := r.BaseRow(i)
		fmt.Fprintf(&b, "%v@%s[%d];", r.Tuple(i), base.Name(), row)
	}
	return b.String()
}

// bigRelation builds n rows with nulls sprinkled in, plus computed
// attributes, so kernel and interpreted scans cover the full value
// space.
func bigRelation(t testing.TB, n int) *Relation {
	t.Helper()
	r := New("Big", MustSchema(
		Column{Name: "id", Kind: types.Int},
		Column{Name: "grp", Kind: types.Int},
		Column{Name: "val", Kind: types.Float},
		Column{Name: "tag", Kind: types.Text},
	))
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		tu := []types.Value{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(7))),
			types.NewFloat(rng.Float64()*100 - 50),
			types.NewText([]string{"a", "bb", "ccc", ""}[rng.Intn(4)]),
		}
		if rng.Intn(11) == 0 {
			tu[rng.Intn(3)+1] = types.Null
		}
		r.MustAppend(tu)
	}
	if err := r.AddComputed("score", expr.MustParse("val * 2.0 + float(grp)")); err != nil {
		t.Fatal(err)
	}
	return r
}

var differentialPreds = []string{
	"id % 3 = 0 and val > -10.0",
	"score > 0.0 or tag = 'bb'",
	"grp < 4 and len(tag) >= 2",
	"val * val > 100.0",
	"contains(tag, 'c') or id < 10",
}

func TestRestrictCompiledMatchesInterpreted(t *testing.T) {
	r := bigRelation(t, 500)
	for _, src := range differentialPreds {
		pred := expr.MustParse(src)
		kernel, err := Restrict(r, pred, Exec{})
		if err != nil {
			t.Fatalf("kernel restrict %q: %v", src, err)
		}
		interpreted, err := Restrict(r, pred, Exec{Path: PathInterp})
		if err != nil {
			t.Fatalf("interpreted restrict %q: %v", src, err)
		}
		if got, want := relFingerprint(t, kernel), relFingerprint(t, interpreted); got != want {
			t.Errorf("restrict %q differs:\n  kernel      %.120s\n  interpreted %.120s", src, got, want)
		}
	}
}

func TestMapColumnCompiledMatchesInterpreted(t *testing.T) {
	r := bigRelation(t, 300)
	for _, src := range []string{"val * 2.0", "val + float(id % 5)", "score / 3.0"} {
		def := expr.MustParse(src)
		kernel, err := MapColumn(r, "val", def, Exec{})
		if err != nil {
			t.Fatalf("kernel map %q: %v", src, err)
		}
		interpreted, err := MapColumn(r, "val", def, Exec{Path: PathInterp})
		if err != nil {
			t.Fatalf("interpreted map %q: %v", src, err)
		}
		if got, want := relFingerprint(t, kernel), relFingerprint(t, interpreted); got != want {
			t.Errorf("map %q differs", src)
		}
	}
}

// A mapped Float column whose definition yields an Int on some rows
// (an if() with an Int and a Float branch) must still hold Floats, or
// the chunk encoding behind the kernel rejects the relation.
func TestMapColumnConformsToColumnKind(t *testing.T) {
	r := kernelRelation(t, 100)
	for _, x := range []Exec{{}, {Path: PathInterp}} {
		m, err := MapColumn(r, "x", expr.MustParse("if(flag, a, y)"), x)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.Len(); i++ {
			if v := m.Tuple(i)[3]; !v.IsNull() && v.Kind() != types.Float {
				t.Fatalf("path %d row %d: mapped Float column holds %s %v", x.Path, i, v.Kind(), v)
			}
		}
		pred := expr.MustParse("x > 0.0")
		kernel, err := Restrict(m, pred, Exec{})
		if err != nil {
			t.Fatalf("path %d: kernel restrict over the mapped column: %v", x.Path, err)
		}
		interpreted, err := Restrict(m, pred, Exec{Path: PathInterp})
		if err != nil {
			t.Fatal(err)
		}
		if relFingerprint(t, kernel) != relFingerprint(t, interpreted) {
			t.Errorf("path %d: restrict over the mapped column differs kernel vs interpreted", x.Path)
		}
	}
}

func TestPartitionCompiledMatchesInterpreted(t *testing.T) {
	r := bigRelation(t, 400)
	preds := []expr.Node{
		expr.MustParse("grp = 0"),
		expr.MustParse("val < 0.0"),
		expr.MustParse("id % 2 = 0"),
	}
	kernel, err := Partition(r, preds, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	interpreted, err := Partition(r, preds, Exec{Path: PathInterp})
	if err != nil {
		t.Fatal(err)
	}
	if len(kernel) != len(interpreted) {
		t.Fatalf("partition counts differ: %d vs %d", len(kernel), len(interpreted))
	}
	for i := range kernel {
		if relFingerprint(t, kernel[i]) != relFingerprint(t, interpreted[i]) {
			t.Errorf("partition %d differs", i)
		}
	}
}

func TestJoinResidualCompiledMatchesInterpreted(t *testing.T) {
	l := bigRelation(t, 120)
	r := New("Dept", MustSchema(
		Column{Name: "did", Kind: types.Int},
		Column{Name: "bonus", Kind: types.Float},
	))
	for i := 0; i < 7; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i) * 1500)})
	}
	pred := expr.MustParse("grp = did and val > bonus / 1000.0")
	for _, strat := range []JoinStrategy{JoinHash, JoinNestedLoop} {
		kernel, err := Join(l, r, pred, strat, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		interpreted, err := Join(l, r, pred, strat, Exec{Path: PathInterp})
		if err != nil {
			t.Fatal(err)
		}
		if relFingerprint(t, kernel) != relFingerprint(t, interpreted) {
			t.Errorf("join strategy %d differs kernel vs interpreted", strat)
		}
	}
}

// FusedScan against the chain of individual operators it replaces: same
// schema, computed attributes, tuples, and provenance.
func TestFusedScanMatchesChain(t *testing.T) {
	ctx := context.Background()
	r := bigRelation(t, 600)
	ops := []FusedOp{
		{Pred: expr.MustParse("val > -25.0")},
		{Project: []string{"id", "grp", "val"}},
		{Pred: expr.MustParse("id % 2 = 0 and grp != 3")},
	}
	want := r
	var err error
	if want, err = Restrict(want, ops[0].Pred, Exec{}); err != nil {
		t.Fatal(err)
	}
	if want, err = Project(want, ops[1].Project); err != nil {
		t.Fatal(err)
	}
	if want, err = Restrict(want, ops[2].Pred, Exec{}); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		res, err := FusedScan(ctx, r, ops, Exec{Workers: workers})
		if err != nil {
			t.Fatalf("fused scan (workers=%d): %v", workers, err)
		}
		if got := relFingerprint(t, res.Out); got != relFingerprint(t, want) {
			t.Errorf("fused scan (workers=%d) differs from chain", workers)
		}
		if len(res.Shapes) != len(ops) || res.Shapes[len(ops)-1] != res.Out {
			t.Fatalf("shapes misreported: %d entries", len(res.Shapes))
		}
	}

	// Interpreted fused scan agrees too.
	res, err := FusedScan(ctx, r, ops, Exec{Path: PathInterp, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if relFingerprint(t, res.Out) != relFingerprint(t, want) {
		t.Error("interpreted fused scan differs from chain")
	}
}

// Randomized fused-vs-chain property: random pipelines over random
// relations, fused output must match the operator chain exactly.
func TestFusedScanMatchesChainRandom(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	preds := append([]string{}, differentialPreds...)
	projects := [][]string{
		{"id", "grp", "val", "tag"},
		{"id", "val", "grp"},
		{"val", "id"},
	}
	for trial := 0; trial < 30; trial++ {
		r := bigRelation(t, 100+rng.Intn(200))
		var ops []FusedOp
		steps := 1 + rng.Intn(4)
		cols := map[string]bool{"id": true, "grp": true, "val": true, "tag": true}
		for s := 0; s < steps; s++ {
			if rng.Intn(3) == 0 {
				// Project to a subset that still exists at this point.
				var pick []string
				for _, p := range projects[rng.Intn(len(projects))] {
					if cols[p] {
						pick = append(pick, p)
					}
				}
				if len(pick) == 0 {
					continue
				}
				ops = append(ops, FusedOp{Project: pick})
				cols = map[string]bool{}
				for _, p := range pick {
					cols[p] = true
				}
			} else {
				// Pick a predicate over columns that survived so far.
				var src string
				switch {
				case cols["val"] && cols["grp"] && cols["tag"]:
					src = preds[rng.Intn(len(preds))]
				case cols["val"]:
					src = "val * val > 100.0"
				default:
					src = "id < 150"
				}
				ops = append(ops, FusedOp{Pred: expr.MustParse(src)})
			}
		}
		if len(ops) == 0 {
			continue
		}
		want := r
		var err error
		for _, op := range ops {
			if op.Pred != nil {
				want, err = Restrict(want, op.Pred, Exec{})
			} else {
				want, err = Project(want, op.Project)
			}
			if err != nil {
				t.Fatalf("trial %d chain: %v", trial, err)
			}
		}
		res, err := FusedScan(ctx, r, ops, Exec{Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatalf("trial %d fused: %v", trial, err)
		}
		if relFingerprint(t, res.Out) != relFingerprint(t, want) {
			t.Fatalf("trial %d: fused differs from chain (%d ops)", trial, len(ops))
		}
	}
}

func TestFusedScanStepErrors(t *testing.T) {
	ctx := context.Background()
	r := bigRelation(t, 50)
	// Shape-time failure: unknown attribute in step 1.
	_, err := FusedScan(ctx, r, []FusedOp{
		{Pred: expr.MustParse("val > 0.0")},
		{Pred: expr.MustParse("nope = 1")},
	}, Exec{Workers: 1})
	var se *FusedStepError
	if err == nil {
		t.Fatal("bad predicate accepted")
	}
	if !asStepError(err, &se) || se.Step != 1 {
		t.Fatalf("error %v not attributed to step 1", err)
	}
	// Runtime failure: division by zero in step 0.
	_, err = FusedScan(ctx, r, []FusedOp{
		{Pred: expr.MustParse("id / (id - id) > 0")},
	}, Exec{Workers: 1})
	if err == nil {
		t.Fatal("erroring predicate succeeded")
	}
	if !asStepError(err, &se) || se.Step != 0 {
		t.Fatalf("runtime error %v not attributed to step 0", err)
	}
}

func asStepError(err error, out **FusedStepError) bool {
	for err != nil {
		if se, ok := err.(*FusedStepError); ok {
			*out = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Parallel scans must be byte-deterministic: many workers over a
// relation above DefaultScanThreshold produce exactly the serial output,
// run after run, on the kernel and the interpreter alike.
func TestParallelScanDeterminism(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	ctx := context.Background()
	r := bigRelation(t, 2*DefaultScanThreshold+500)
	pred := expr.MustParse("score > 0.0 and id % 7 != 2")
	def := expr.MustParse("val * 3.0")
	ops := []FusedOp{{Pred: pred}, {Project: []string{"id", "val"}}}
	for _, path := range []Path{PathAuto, PathInterp} {
		serial, parallel := Exec{Path: path, Workers: 1}, Exec{Path: path, Workers: 8}
		// run executes all three scanning operators under x and
		// fingerprints their outputs.
		run := func(x Exec) [3]string {
			t.Helper()
			rs, err := Restrict(r, pred, x)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := MapColumn(r, "val", def, x)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := FusedScan(ctx, r, ops, x)
			if err != nil {
				t.Fatal(err)
			}
			return [3]string{relFingerprint(t, rs), relFingerprint(t, mc), relFingerprint(t, fs.Out)}
		}
		want := run(serial)
		for i := 0; i < 5; i++ {
			before := obs.CounterValue(obs.RelScanChunks)
			got := run(parallel)
			if obs.CounterValue(obs.RelScanChunks) == before {
				t.Fatalf("path %d run %d: no scan split into chunks", path, i)
			}
			for op, name := range []string{"restrict", "map column", "fused scan"} {
				if got[op] != want[op] {
					t.Fatalf("path %d run %d: parallel %s differs from serial", path, i, name)
				}
			}
		}
	}
}

// Exec.chunks: a scan stays serial below DefaultScanThreshold or with one
// worker; above it the zero Exec uses GOMAXPROCS workers and an explicit
// bound uses exactly that many, on every path.
func TestExecChunks(t *testing.T) {
	n := DefaultScanThreshold
	for _, c := range []struct {
		x       Exec
		n, want int
	}{
		{Exec{}, n - 1, 1},
		{Exec{}, n, runtime.GOMAXPROCS(0)},
		{Exec{Workers: 1}, 10 * n, 1},
		{Exec{Workers: 8}, n, 8},
		{Exec{Path: PathInterp, Workers: 3}, n, 3},
	} {
		if got := c.x.chunks(c.n); got != c.want {
			t.Errorf("%+v.chunks(%d) = %d, want %d", c.x, c.n, got, c.want)
		}
	}
}

// Parallel error determinism: the error surfaced must be the one the
// serial scan hits first, regardless of worker count.
func TestParallelScanErrorDeterminism(t *testing.T) {
	const n, bad = 3 * DefaultScanThreshold, 2*DefaultScanThreshold + 700
	r := New("E", MustSchema(Column{Name: "a", Kind: types.Int}))
	for i := 0; i < n; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i))})
	}
	// Fails for every a >= bad: the first failing row in serial order is
	// bad, and every chunk after its chunk fails too.
	pred := expr.MustParse(fmt.Sprintf("if(a < %d, 1, a / 0) = 1", bad))

	_, serialErr := Restrict(r, pred, Exec{Workers: 1})
	if serialErr == nil {
		t.Fatal("expected serial error")
	}
	for i := 0; i < 4; i++ {
		_, parErr := Restrict(r, pred, Exec{Workers: 8})
		if parErr == nil {
			t.Fatal("expected parallel error")
		}
		if parErr.Error() != serialErr.Error() {
			t.Fatalf("parallel error %q differs from serial %q", parErr, serialErr)
		}
	}
}

// The join hash key must treat numerically-equal ints and floats as equal
// and keep every other kind distinct — replacing the old string key.
func TestValueKeyEquivalence(t *testing.T) {
	cases := []struct {
		a, b  types.Value
		equal bool
	}{
		{types.NewInt(3), types.NewFloat(3.0), true},
		{types.NewInt(3), types.NewFloat(3.5), false},
		{types.NewFloat(0.0), types.NewFloat(negZero()), true},
		{types.NewText("3"), types.NewInt(3), false},
		{types.NewText("a"), types.NewText("a"), true},
		{types.NewBool(true), types.NewInt(1), false},
		{types.NewDate(100), types.NewInt(100), false},
		{types.NewDate(100), types.NewDate(100), true},
		{types.Null, types.Null, true},
		{types.Null, types.NewInt(0), false},
	}
	for _, c := range cases {
		if got := keyOf(c.a) == keyOf(c.b); got != c.equal {
			t.Errorf("keyOf(%s) == keyOf(%s): got %v, want %v", c.a, c.b, got, c.equal)
		}
	}
}

// TestHashJoinDropsKeyConjunct: the hash join evaluates its predicate
// without the key equality it hashed on. Its output must be identical to
// evaluating the whole predicate on every key-matched pair, for keys
// where bucketing and comparison could disagree: NaN, ±0, Int against
// Float, Ints and Dates past 2^53, and nulls.
func TestHashJoinDropsKeyConjunct(t *testing.T) {
	const big = int64(1) << 53
	l := New("L", MustSchema(
		Column{Name: "lk", Kind: types.Int},
		Column{Name: "lf", Kind: types.Float},
		Column{Name: "ld", Kind: types.Date},
		Column{Name: "ltag", Kind: types.Text},
	))
	r := New("R", MustSchema(
		Column{Name: "rk", Kind: types.Float},
		Column{Name: "ri", Kind: types.Int},
		Column{Name: "rd", Kind: types.Date},
		Column{Name: "rtag", Kind: types.Text},
	))
	ints := []types.Value{types.NewInt(0), types.NewInt(1), types.NewInt(big), types.NewInt(big + 1),
		types.NewInt(-big - 1), types.NewInt(3), types.Null}
	floats := []types.Value{types.NewFloat(0), types.NewFloat(negZero()), types.NewFloat(math.NaN()),
		types.NewFloat(1), types.NewFloat(float64(big)), types.NewFloat(3.5), types.Null}
	dates := []types.Value{types.NewDate(0), types.NewDate(1), types.NewDate(4 * big), types.NewDate(4*big + 1), types.Null}
	tags := []types.Value{types.NewText("a"), types.NewText("b")}
	for i := 0; i < 40; i++ {
		l.MustAppend([]types.Value{ints[i%7], floats[(i/2)%7], dates[i%5], tags[i%2]})
	}
	for i := 0; i < 25; i++ {
		r.MustAppend([]types.Value{floats[i%7], ints[(i/3)%7], dates[(i/2)%5], tags[(i/5)%2]})
	}
	preds := []string{
		"lk = rk",                  // Int against Float: ±0 and 2^53 collisions
		"lf = rk",                  // NaN and ±0 on both sides
		"lk = ri and ltag != rtag", // Ints past 2^53, with a residual
		"ld = rd",                  // Dates past 2^53 days
		"rk = lf and lk > 0",       // key written right-to-left
		"ltag = rtag and lk = ri",  // key conjunct second
		"(lf = rk and ld = rd) and lk != 1",
	}
	for _, src := range preds {
		pred := expr.MustParse(src)
		for _, pair := range [][2]*Relation{{l, r}, {r, l}} {
			a, b := pair[0], pair[1]
			got, err := Join(a, b, pred, JoinHash, Exec{})
			if err != nil {
				t.Fatalf("join %q: %v", src, err)
			}
			want, rRename, err := joinShape(a, b)
			if err != nil {
				t.Fatal(err)
			}
			la, ra, _, ok := equiKey(pred, a, b, rRename)
			if !ok {
				t.Fatalf("join %q: no hash key", src)
			}
			if err := hashJoin(want, a, b, la, ra, joinEmit(want, pred)); err != nil {
				t.Fatal(err)
			}
			if got.Len() == 0 {
				t.Fatalf("join %q matched nothing; the case proves nothing", src)
			}
			if kindFingerprint(t, got) != kindFingerprint(t, want) {
				t.Errorf("join %q (%s ⋈ %s): output differs from full-predicate evaluation", src, a.Name(), b.Name())
			}
		}
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestMaterializedComputedMatchesInterpreted targets computed
// attributes head-on: referenced many times (directly and through other
// computed attributes) the kernel evaluates each once per chunk, and a
// definition that fails at runtime must still read as null, exactly as
// the interpreter's per-reference evaluation reports it.
func TestMaterializedComputedMatchesInterpreted(t *testing.T) {
	ctx := context.Background()
	r := bigRelation(t, 400)
	// c1 over stored columns, c2 over c1, broken dividing by zero for
	// every row (a computed definition error evaluates to null).
	for _, c := range []struct{ name, def string }{
		{"c1", "val * val + float(grp)"},
		{"c2", "c1 * 0.5 + score"},
		{"broken", "val / (float(id) - float(id))"},
	} {
		if err := r.AddComputed(c.name, expr.MustParse(c.def)); err != nil {
			t.Fatal(err)
		}
	}
	preds := []string{
		// c1 appears five times per row: twice directly, twice through c2,
		// once through c2 again on the right.
		"c1 > 0.0 and c2 + c1 < 500.0 or c2 - c1 * 0.25 > 10.0",
		// A null-valued computed (broken) collapses comparisons to null.
		"broken > 0.0 or c1 < 100.0",
		"c2 * c2 > c1 + score",
	}
	for _, src := range preds {
		pred := expr.MustParse(src)
		kernel, err := Restrict(r, pred, Exec{})
		if err != nil {
			t.Fatalf("kernel restrict %q: %v", src, err)
		}
		interpreted, err := Restrict(r, pred, Exec{Path: PathInterp})
		if err != nil {
			t.Fatalf("interpreted restrict %q: %v", src, err)
		}
		if got, want := relFingerprint(t, kernel), relFingerprint(t, interpreted); got != want {
			t.Errorf("restrict %q differs:\n  kernel      %.120s\n  interpreted %.120s", src, got, want)
		}
	}

	// The same predicates through a fused scan, against the unfused
	// interpreted chain.
	ops := []FusedOp{
		{Pred: expr.MustParse(preds[0])},
		{Project: []string{"id", "grp", "val"}},
		{Pred: expr.MustParse("c1 + c2 < 900.0 and c1 * 2.0 > -100.0")},
	}
	res, err := FusedScan(ctx, r, ops, Exec{Workers: 1})
	if err != nil {
		t.Fatalf("fused scan: %v", err)
	}
	interp := Exec{Path: PathInterp}
	s1, err := Restrict(r, ops[0].Pred, interp)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Project(s1, ops[1].Project)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Restrict(s2, ops[2].Pred, interp)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantFP := relFingerprint(t, res.Out), relFingerprint(t, want); got != wantFP {
		t.Errorf("fused scan differs:\n  kernel      %.120s\n  interpreted %.120s", got, wantFP)
	}
}

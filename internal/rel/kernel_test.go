package rel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// kernelRelation builds a relation with every storable kind, nulls in every column, zero divisors, NaN floats,
// and computed attributes (one of which always errors), so the kernel's
// bitmap algebra is exercised against the interpreter over the full
// value space.
func kernelRelation(t testing.TB, n int) *Relation {
	t.Helper()
	r := New("K", MustSchema(
		Column{Name: "id", Kind: types.Int},
		Column{Name: "a", Kind: types.Int},
		Column{Name: "b", Kind: types.Int},
		Column{Name: "x", Kind: types.Float},
		Column{Name: "y", Kind: types.Float},
		Column{Name: "tag", Kind: types.Text},
		Column{Name: "flag", Kind: types.Bool},
		Column{Name: "d", Kind: types.Date},
		Column{Name: "d2", Kind: types.Date},
	))
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		x := rng.Float64()*40 - 20
		if rng.Intn(41) == 0 {
			x = math.NaN()
		}
		tu := []types.Value{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(21) - 10)),
			types.NewInt(int64(rng.Intn(7) - 3)), // zero divisors included
			types.NewFloat(x),
			types.NewFloat(rng.Float64()*10 - 5),
			types.NewText([]string{"a", "bb", "ccc", ""}[rng.Intn(4)]),
			types.NewBool(rng.Intn(2) == 0),
			types.NewDate(int64(rng.Intn(100))),
			types.NewDate(int64(rng.Intn(100))),
		}
		if rng.Intn(9) == 0 {
			tu[rng.Intn(8)+1] = types.Null
		}
		r.MustAppend(tu)
	}
	for _, c := range []struct{ name, def string }{
		{"score", "x * 2.0 + y"},
		{"ib", "a * 3 + id % 11"},
		{"hot", "x > 5.0 and flag"},
		{"broken", "a / (id - id)"},
	} {
		if err := r.AddComputed(c.name, expr.MustParse(c.def)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// asChunkBacked rebuilds r as a chunk-backed relation (lazily encoded
// from its frozen tuples) with the given chunk size, carrying the
// computed attributes over.
func asChunkBacked(t testing.TB, r *Relation, chunkRows int) *Relation {
	t.Helper()
	out, err := FromChunkSource(r.name+"_chunks", r.schema,
		&rowChunkSource{schema: r.schema, tuples: r.tuples, chunkRows: chunkRows})
	if err != nil {
		t.Fatal(err)
	}
	out.computed = append([]Computed(nil), r.computed...)
	return out
}

// kernelPreds is the differential corpus. The kernel runs every
// predicate: the monomorphic shapes and, through its generic per-row
// node, builtin calls, Text ordering and concatenation, Date
// arithmetic, float modulo, Bool comparison and null literals.
var kernelPreds = []string{
	"a + b * 2 - id % 7 > 0",
	"b != 0 and a / b > 1", // short-circuit masks the zero divisors
	"b != 0 and a % b = 0",
	"x > 10.0 or y < -2.5",
	"x > a",
	"a * 1.5 <= y + 0.25",
	"tag = 'bb'",
	"tag != 'a' and a >= 0",
	"flag and x > 0.0",
	"not flag or a = 3",
	"d >= d2",
	"d != d2 or flag",
	"-a < 2 and -x < 19.5",
	"a > 2 + 3",
	"score > 1.0",
	"ib > 5 and score < 30.0",
	"broken > 0 or a < 0",                    // erroring computed reads as null
	"x = x",                                  // NaN compares equal under three-way float compare
	"id * 1000000000000 * 1000000000000 > 0", // int64 wrap
	"(a > 0 and b > 0) or (x < 0.0 and not flag)",
	"hot or y > 4.0",
	"len(tag) > 2",  // builtin call
	"tag < 'c'",     // text ordering
	"d - d2 > 10",   // date arithmetic
	"y % 3.0 > 0.0", // float modulo
	"flag = true",   // bool comparison
	"contains(tag, 'c')",
	"tag || 'x' = 'bbx' or d + 3 < d2",
	"if(flag, a, x) / 2 > 1",           // runtime Int where the static kind is Float
	"str(null) = tag or sqrt(x) > 2.0", // null literal; sqrt of a negative is NaN
}

// TestKernelRestrictMatchesRowPaths holds the kernel equal to the
// interpreter over a relation of several chunks, and checks the kernel
// really ran for every predicate.
func TestKernelRestrictMatchesRowPaths(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	r := kernelRelation(t, 2*DefaultChunkRows+123)
	for _, src := range kernelPreds {
		pred := expr.MustParse(src)
		before := obs.CounterValue(obs.RelKernelScans)
		got, err := Restrict(r, pred, Exec{})
		if err != nil {
			t.Fatalf("kernel restrict %q: %v", src, err)
		}
		if obs.CounterValue(obs.RelKernelScans) == before {
			t.Errorf("restrict %q: kernel did not run", src)
		}
		interp, err := Restrict(r, pred, Exec{Path: PathInterp})
		if err != nil {
			t.Fatalf("interpreted restrict %q: %v", src, err)
		}
		if relFingerprint(t, got) != relFingerprint(t, interp) {
			t.Errorf("restrict %q: kernel differs from interpreter", src)
		}
	}
}

// TestKernelChunkBackedMatches runs the corpus over a genuinely chunk-
// backed relation (small chunks, so many chunk boundaries) and holds it
// equal to the row-major interpreter.
func TestKernelChunkBackedMatches(t *testing.T) {
	row := kernelRelation(t, 3000)
	cb := asChunkBacked(t, row, 256)
	for _, src := range kernelPreds {
		pred := expr.MustParse(src)
		got, err := Restrict(cb, pred, Exec{})
		if err != nil {
			t.Fatalf("chunk-backed restrict %q: %v", src, err)
		}
		want, err := Restrict(row, pred, Exec{Path: PathInterp})
		if err != nil {
			t.Fatalf("interpreted restrict %q: %v", src, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("restrict %q: %d rows vs %d interpreted", src, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			gt, wt := got.Tuple(i), want.Tuple(i)
			for c := range gt {
				if keyOf(gt[c]) != keyOf(wt[c]) || gt[c].Kind() != wt[c].Kind() {
					t.Fatalf("restrict %q row %d col %d: %v vs %v", src, i, c, gt[c], wt[c])
				}
			}
		}
	}
}

// TestKernelErrorParity: an unguarded zero divisor must surface the
// same error, attributed to the same first failing row, on both
// evaluators — the kernel's error bitmap plus ascending row-wise
// fallback reproduces the serial scan's first error exactly.
func TestKernelErrorParity(t *testing.T) {
	r := kernelRelation(t, 2*DefaultChunkRows+50)
	for _, src := range []string{"a / b > 0", "a % b = 0", "y / 0.0 > 1.0", "a > 1 / 0", "y % 0.0 > 1.0", "len(tag) / b > 0"} {
		pred := expr.MustParse(src)
		_, kerr := Restrict(r, pred, Exec{})
		if kerr == nil {
			t.Fatalf("restrict %q: kernel path did not error", src)
		}
		_, ierr := Restrict(r, pred, Exec{Path: PathInterp})
		if ierr == nil {
			t.Fatalf("restrict %q: interpreter did not error", src)
		}
		if kerr.Error() != ierr.Error() {
			t.Fatalf("restrict %q error drift:\n  kernel      %v\n  interpreted %v", src, kerr, ierr)
		}
	}
}

// TestKernelFusedMatchesChain holds the fused kernel equal to the
// interpreted fused scan and to the unfused interpreted chain, over both
// row-major and chunk-backed sources.
func TestKernelFusedMatchesChain(t *testing.T) {
	ctx := context.Background()
	r := kernelRelation(t, 2*DefaultChunkRows+123)
	cb := asChunkBacked(t, r, 512)
	pipelines := [][]FusedOp{
		{
			{Pred: expr.MustParse("a + b > -15")},
			{Project: []string{"id", "a", "b", "x", "flag"}},
			{Pred: expr.MustParse("flag and x > -10.0")},
		},
		{
			{Pred: expr.MustParse("score > -50.0")},
			{Pred: expr.MustParse("b != 0 and a / b >= 0")},
			{Project: []string{"id", "x"}},
		},
		{
			// Step 1 is a builtin call, which the kernel's generic node
			// evaluates.
			{Pred: expr.MustParse("a > -8")},
			{Pred: expr.MustParse("len(tag) >= 1")},
		},
	}
	for pi, ops := range pipelines {
		before := obs.CounterValue(obs.RelKernelScans)
		res, err := FusedScan(ctx, r, ops, Exec{Workers: 4})
		if err != nil {
			t.Fatalf("pipeline %d fused: %v", pi, err)
		}
		t.Logf("pipeline %d: kernel scans +%d", pi, obs.CounterValue(obs.RelKernelScans)-before)
		off, err := FusedScan(ctx, r, ops, Exec{Path: PathInterp, Workers: 4})
		if err != nil {
			t.Fatalf("pipeline %d fused (interpreted): %v", pi, err)
		}
		if relFingerprint(t, res.Out) != relFingerprint(t, off.Out) {
			t.Errorf("pipeline %d: fused kernel differs from the interpreter", pi)
		}
		want := r
		for _, op := range ops {
			if op.Pred != nil {
				want, err = Restrict(want, op.Pred, Exec{Path: PathInterp})
			} else {
				want, err = Project(want, op.Project)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if relFingerprint(t, res.Out) != relFingerprint(t, want) {
			t.Errorf("pipeline %d: fused kernel differs from interpreted chain", pi)
		}

		cres, err := FusedScan(ctx, cb, ops, Exec{Workers: 4})
		if err != nil {
			t.Fatalf("pipeline %d chunk-backed fused: %v", pi, err)
		}
		if cres.Out.Len() != want.Len() {
			t.Errorf("pipeline %d: chunk-backed fused %d rows, want %d", pi, cres.Out.Len(), want.Len())
		}
	}
}

// TestKernelFusedErrorAttribution: a row that errors at step k must
// report step k — and only if it survived the earlier steps. The fused
// kernel ignores vector-lane errors on rows already deselected, exactly
// like the row-at-a-time short circuit.
func TestKernelFusedErrorAttribution(t *testing.T) {
	ctx := context.Background()
	r := New("F", MustSchema(Column{Name: "v", Kind: types.Int}))
	for i := 0; i < 2*DefaultChunkRows; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i))})
	}
	target := int64(DefaultChunkRows + 100) // even; sits in chunk 1

	// v = target survives step 0, then divides by zero at step 1.
	ops := []FusedOp{
		{Pred: expr.MustParse("v % 2 = 0")},
		{Pred: expr.MustParse("v / (v - 4196) >= 0")},
	}
	if target != 4196 {
		t.Fatalf("test constant drift: target=%d", target)
	}
	_, err := FusedScan(ctx, r, ops, Exec{Workers: 4})
	var se *FusedStepError
	if err == nil || !errors.As(err, &se) || se.Step != 1 {
		t.Fatalf("kernel fused error %v not attributed to step 1", err)
	}
	_, offErr := FusedScan(ctx, r, ops, Exec{Path: PathInterp, Workers: 4})
	if offErr == nil || err.Error() != offErr.Error() {
		t.Fatalf("kernel fused error %q differs from the interpreter's %q", err, offErr)
	}

	// Deselect the row at step 0 instead: no error anywhere.
	ops[0] = FusedOp{Pred: expr.MustParse("v % 2 = 1")}
	res, err := FusedScan(ctx, r, ops, Exec{Workers: 4})
	if err != nil {
		t.Fatalf("deselected erroring row still raised: %v", err)
	}
	off, offErr := FusedScan(ctx, r, ops, Exec{Path: PathInterp, Workers: 4})
	if offErr != nil {
		t.Fatal(offErr)
	}
	if relFingerprint(t, res.Out) != relFingerprint(t, off.Out) {
		t.Error("fused kernel differs from the interpreter after deselection")
	}
}

// TestKernelFallbackCounter: error rows must be counted as fallback
// rows, and scans without errors must not touch the counter.
func TestKernelFallbackCounter(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	r := kernelRelation(t, DefaultChunkRows+10)
	before := obs.CounterValue(obs.RelKernelFallback)
	if _, err := Restrict(r, expr.MustParse("a + 1 > 0"), Exec{}); err != nil {
		t.Fatal(err)
	}
	if got := obs.CounterValue(obs.RelKernelFallback); got != before {
		t.Fatalf("clean scan advanced fallback counter by %d", got-before)
	}
	_, err := Restrict(r, expr.MustParse("a / b > 0"), Exec{}) // errors at first b=0
	if err == nil {
		t.Fatal("expected zero-divisor error")
	}
	if got := obs.CounterValue(obs.RelKernelFallback); got <= before {
		t.Fatal("erroring scan did not count fallback rows")
	}
}

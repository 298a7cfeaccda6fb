package rel

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// exprGen builds random expressions of a requested static kind over
// kernelRelation's attributes plus one extra computed attribute "c" of
// kind comp. It is kind-directed because production always runs Check
// before evaluation, so the interpreter's builtins may assume statically
// well-typed arguments. Runtime hazards stay in play: division and
// modulus by zero, nulls and NaN in the columns, a computed attribute
// that always errors, and the if-builtin returning a runtime Int where
// the static kind says Float.
type exprGen struct {
	r    *rand.Rand
	comp types.Kind
}

func (g exprGen) leaf(k types.Kind) string {
	r := g.r
	if k == g.comp && r.Intn(4) == 0 {
		return "c"
	}
	switch k {
	case types.Int:
		if r.Intn(2) == 0 {
			return fmt.Sprintf("%d", r.Intn(11)-5)
		}
		return []string{"id", "a", "b", "ib", "broken"}[r.Intn(5)]
	case types.Float:
		if r.Intn(2) == 0 {
			return fmt.Sprintf("%.2f", r.Float64()*10-5)
		}
		return []string{"x", "y", "score"}[r.Intn(3)]
	case types.Text:
		return []string{"''", "'a'", "'bb'", "tag", "tag"}[r.Intn(5)]
	case types.Date:
		return []string{"d", "d2"}[r.Intn(2)]
	default:
		return []string{"true", "false", "flag", "hot"}[r.Intn(4)]
	}
}

func (g exprGen) num(depth int) string {
	if g.r.Intn(2) == 0 {
		return g.gen(depth, types.Int)
	}
	return g.gen(depth, types.Float)
}

func (g exprGen) gen(depth int, k types.Kind) string {
	r := g.r
	if depth <= 0 || r.Intn(4) == 0 {
		return g.leaf(k)
	}
	d := depth - 1
	switch k {
	case types.Int:
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("(-%s)", g.gen(d, types.Int))
		case 1:
			return fmt.Sprintf("abs(%s)", g.gen(d, types.Int))
		case 2:
			return fmt.Sprintf("len(%s)", g.gen(d, types.Text))
		case 3:
			return fmt.Sprintf("if(%s, %s, %s)", g.gen(d, types.Bool), g.gen(d, types.Int), g.gen(d, types.Int))
		case 4:
			return fmt.Sprintf("(%s - %s)", g.gen(d, types.Date), g.gen(d, types.Date))
		default:
			ops := []string{"+", "-", "*", "/", "%"}
			return fmt.Sprintf("(%s %s %s)", g.gen(d, types.Int), ops[r.Intn(len(ops))], g.gen(d, types.Int))
		}
	case types.Float:
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("(-%s)", g.gen(d, types.Float))
		case 1:
			return fmt.Sprintf("float(%s)", g.gen(d, types.Int))
		case 2:
			// The specialization trap: statically Float, runtime Int when
			// the branches disagree.
			return fmt.Sprintf("if(%s, %s, %s)", g.gen(d, types.Bool), g.gen(d, types.Int), g.gen(d, types.Float))
		case 3:
			return fmt.Sprintf("sqrt(%s)", g.num(d))
		default:
			ops := []string{"+", "-", "*", "/", "%"}
			a, b := g.gen(d, types.Float), g.num(d)
			if r.Intn(2) == 0 {
				a, b = b, a
			}
			return fmt.Sprintf("(%s %s %s)", a, ops[r.Intn(len(ops))], b)
		}
	case types.Text:
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("str(%s)", g.gen(d, randKind(r)))
		case 1:
			return fmt.Sprintf("substr(%s, %d, %d)", g.gen(d, types.Text), r.Intn(3), r.Intn(4))
		default:
			return fmt.Sprintf("(%s || %s)", g.gen(d, types.Text), g.gen(d, types.Text))
		}
	case types.Date:
		ops := []string{"+", "-"}
		return fmt.Sprintf("(%s %s %s)", g.gen(d, types.Date), ops[r.Intn(2)], g.gen(d, types.Int))
	default: // Bool
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("(not %s)", g.gen(d, types.Bool))
		case 1:
			return fmt.Sprintf("contains(%s, %s)", g.gen(d, types.Text), g.gen(d, types.Text))
		case 2:
			ops := []string{"and", "or"}
			return fmt.Sprintf("(%s %s %s)", g.gen(d, types.Bool), ops[r.Intn(2)], g.gen(d, types.Bool))
		case 3:
			ops := []string{"=", "!="}
			pairs := [][2]string{
				{g.gen(d, types.Text), g.gen(d, types.Text)},
				{g.gen(d, types.Bool), g.gen(d, types.Bool)},
				{g.gen(d, types.Date), g.gen(d, types.Date)},
				{g.num(d), g.num(d)},
			}
			p := pairs[r.Intn(len(pairs))]
			return fmt.Sprintf("(%s %s %s)", p[0], ops[r.Intn(2)], p[1])
		default:
			ops := []string{"<", "<=", ">", ">="}
			switch r.Intn(4) {
			case 0:
				return fmt.Sprintf("(%s %s %s)", g.gen(d, types.Text), ops[r.Intn(4)], g.gen(d, types.Text))
			case 1:
				return fmt.Sprintf("(%s %s %s)", g.gen(d, types.Date), ops[r.Intn(4)], g.gen(d, types.Date))
			}
			return fmt.Sprintf("(%s %s %s)", g.num(d), ops[r.Intn(4)], g.num(d))
		}
	}
}

func randKind(r *rand.Rand) types.Kind {
	return []types.Kind{types.Int, types.Float, types.Text, types.Bool, types.Date}[r.Intn(5)]
}

// kindFingerprint is relFingerprint plus every value's kind, so an Int
// where the interpreter produced a Float shows as a difference.
func kindFingerprint(t testing.TB, r *Relation) string {
	var b strings.Builder
	b.WriteString(relFingerprint(t, r))
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Tuple(i) {
			fmt.Fprintf(&b, "%d", v.Kind())
		}
	}
	return b.String()
}

// sameErr fails unless the kernel and the interpreter both succeed or
// both fail with the same error string; it reports whether both
// succeeded.
func sameErr(t *testing.T, what string, kerr, ierr error) bool {
	t.Helper()
	if (kerr == nil) != (ierr == nil) || (kerr != nil && kerr.Error() != ierr.Error()) {
		t.Fatalf("%s: kernel error %v, interpreter error %v", what, kerr, ierr)
	}
	return kerr == nil
}

// sameOutcome fails unless the kernel and the interpreter agree: both
// fail with the same error string, or both succeed with the same output.
func sameOutcome(t *testing.T, what string, kern, interp *Relation, kerr, ierr error) {
	t.Helper()
	if sameErr(t, what, kerr, ierr) && kindFingerprint(t, kern) != kindFingerprint(t, interp) {
		t.Fatalf("%s: kernel output differs from the interpreter's", what)
	}
}

// FuzzKernelMatchesInterpreter is the kernel's differential property:
// for a predicate (src when it is non-empty, else one generated from
// seed), a generated value expression and a generated computed
// attribute "c", Restrict, MapColumn, a two-way Partition and a
// two-step FusedScan on PathAuto must equal PathInterp in rows, kinds and error strings, over
// a small relation with nulls, NaN, zero divisors and computed
// attributes, row-major and chunk-backed. The kernel corpus seeds it,
// together with generated cases.
func FuzzKernelMatchesInterpreter(f *testing.F) {
	for i, src := range kernelPreds {
		f.Add(src, int64(i))
	}
	for i := 0; i < 60; i++ {
		f.Add("", int64(1000+i))
	}
	base := kernelRelation(f, 300)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		g := exprGen{r: rand.New(rand.NewSource(seed))}
		kind := randKind(g.r)
		def := g.gen(3, kind)
		g.comp = kind
		r := base.Clone()
		if err := r.AddComputed("c", expr.MustParse(def)); err != nil {
			t.Fatalf("computed c = %s: %v", def, err)
		}
		if src == "" {
			src = g.gen(4, types.Bool)
		}
		pred, err := expr.Parse(src)
		if err != nil {
			return
		}
		pred2 := expr.MustParse(g.gen(3, types.Bool))
		val := expr.MustParse(g.gen(3, randKind(g.r)))
		auto, interp := Exec{Workers: 2}, Exec{Path: PathInterp, Workers: 2}
		for _, rr := range []*Relation{r, asChunkBacked(t, r, 64)} {
			what := fmt.Sprintf("c = %s, chunk-backed=%v", def, rr.ChunkBacked())
			k, kerr := Restrict(rr, pred, auto)
			i, ierr := Restrict(rr, pred, interp)
			sameOutcome(t, fmt.Sprintf("restrict %s (%s)", src, what), k, i, kerr, ierr)

			k, kerr = MapColumn(rr, "a", val, auto)
			i, ierr = MapColumn(rr, "a", val, interp)
			sameOutcome(t, fmt.Sprintf("map column a = %s (%s)", val, what), k, i, kerr, ierr)

			kp, kerr := Partition(rr, []expr.Node{pred, pred2}, auto)
			ip, ierr := Partition(rr, []expr.Node{pred, pred2}, interp)
			if sameErr(t, fmt.Sprintf("partition %s; %s (%s)", src, pred2, what), kerr, ierr) {
				for j := range kp {
					sameOutcome(t, fmt.Sprintf("partition %d of %s; %s (%s)", j, src, pred2, what), kp[j], ip[j], nil, nil)
				}
			}

			ops := []FusedOp{{Pred: pred}, {Pred: pred2}, {Project: []string{"id", "a", "x", "tag", "d"}}}
			kf, kerr := FusedScan(ctx, rr, ops, auto)
			if_, ierr := FusedScan(ctx, rr, ops, interp)
			if sameErr(t, fmt.Sprintf("fused %s; %s (%s)", src, pred2, what), kerr, ierr) {
				sameOutcome(t, fmt.Sprintf("fused %s; %s (%s)", src, pred2, what), kf.Out, if_.Out, nil, nil)
			}
		}
	})
}

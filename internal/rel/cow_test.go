package rel

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

func cowRel(t testing.TB) *Relation {
	t.Helper()
	r := New("C", MustSchema(
		Column{Name: "id", Kind: types.Int},
		Column{Name: "x", Kind: types.Float},
	))
	for i := 0; i < 8; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i) / 2)})
	}
	if err := r.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	def, err := expr.Parse("x * 2.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddComputed("x2", def); err != nil {
		t.Fatal(err)
	}
	return r
}

// freeze captures every visible value of a relation so tests can assert
// that a snapshot never moves.
func freeze(r *Relation) [][]types.Value {
	out := make([][]types.Value, r.Len())
	for i := range out {
		out[i] = append([]types.Value(nil), r.Tuple(i)...)
	}
	return out
}

func assertFrozen(t *testing.T, r *Relation, want [][]types.Value) {
	t.Helper()
	if r.Len() != len(want) {
		t.Fatalf("snapshot length moved: %d, want %d", r.Len(), len(want))
	}
	for i, row := range want {
		got := r.Tuple(i)
		for j, v := range row {
			eq, err := got[j].Compare(v)
			if err != nil || eq != 0 {
				t.Fatalf("snapshot row %d col %d moved: %v, want %v", i, j, got[j], v)
			}
		}
	}
}

func TestCowCloneUpdateInvisibleToOriginal(t *testing.T) {
	orig := cowRel(t)
	before := freeze(orig)
	origGen := orig.Generation()

	next := orig.CowClone()
	if err := next.Update(3, "x", types.NewFloat(99)); err != nil {
		t.Fatal(err)
	}
	assertFrozen(t, orig, before)
	if orig.Generation() != origGen {
		t.Fatalf("original generation moved from %d to %d", origGen, orig.Generation())
	}
	if got := next.Tuple(3)[1].Float(); got != 99 {
		t.Fatalf("clone did not take the update: %v", got)
	}
	if next.Generation() == origGen {
		t.Fatal("clone shares the original's generation after mutation")
	}
}

func TestCowCloneAppendInvisibleToOriginal(t *testing.T) {
	orig := cowRel(t)
	before := freeze(orig)

	next := orig.CowClone()
	next.MustAppend([]types.Value{types.NewInt(100), types.NewFloat(1)})
	assertFrozen(t, orig, before)
	if next.Len() != orig.Len()+1 {
		t.Fatalf("clone length %d, want %d", next.Len(), orig.Len()+1)
	}
}

func TestCowCloneIndexesIndependent(t *testing.T) {
	orig := cowRel(t)
	next := orig.CowClone()
	if err := next.Update(0, "id", types.NewInt(500)); err != nil {
		t.Fatal(err)
	}
	next.MustAppend([]types.Value{types.NewInt(600), types.NewFloat(0)})

	oidx, ok := orig.Index("id")
	if !ok {
		t.Fatal("original lost its index")
	}
	if rows := oidx.Get(types.NewInt(0)); len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("original index for key 0 = %v, want [0]", rows)
	}
	if rows := oidx.Get(types.NewInt(500)); rows != nil {
		t.Fatalf("clone's update leaked into original index: %v", rows)
	}
	if rows := oidx.Get(types.NewInt(600)); rows != nil {
		t.Fatalf("clone's append leaked into original index: %v", rows)
	}
	nidx, _ := next.Index("id")
	if rows := nidx.Get(types.NewInt(500)); len(rows) != 1 {
		t.Fatalf("clone index missed the update: %v", rows)
	}
}

func TestCowCloneComputedIndependent(t *testing.T) {
	orig := cowRel(t)
	next := orig.CowClone()
	def, err := expr.Parse("x + 1.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := next.SetComputed("x2", def); err != nil {
		t.Fatal(err)
	}
	// The original still evaluates the old definition.
	if got := orig.Row(2).Attr("x2").Float(); got != 2.0 {
		t.Fatalf("original computed x2 = %v, want 2.0 (x*2 at x=1)", got)
	}
	if got := next.Row(2).Attr("x2").Float(); got != 2.0 {
		t.Fatalf("clone computed x2 = %v, want 2.0 (x+1 at x=1)", got)
	}
}

func TestCowClonePreservesProvenance(t *testing.T) {
	orig := cowRel(t)
	sub, err := Restrict(orig, expr.MustParse("id >= 4"), Exec{})
	if err != nil {
		t.Fatal(err)
	}
	clone := sub.CowClone()
	base, row := clone.BaseRow(0)
	if base != orig || row != 4 {
		t.Fatalf("BaseRow(0) = (%v, %d), want (orig, 4)", base.Name(), row)
	}
}

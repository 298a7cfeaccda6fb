package rel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/types"
)

// randomRelation builds a relation with mixed column types and n rows
// from a seed.
func randomRelation(n int, seed int64) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := New("Rand", MustSchema(
		Column{Name: "k", Kind: types.Int},
		Column{Name: "v", Kind: types.Float},
		Column{Name: "tag", Kind: types.Text},
	))
	tags := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		r.MustAppend([]types.Value{
			types.NewInt(int64(rng.Intn(50))),
			types.NewFloat(rng.Float64()*100 - 50),
			types.NewText(tags[rng.Intn(len(tags))]),
		})
	}
	return r
}

// Property: Restrict keeps exactly the tuples satisfying the predicate,
// in input order.
func TestRestrictSoundComplete(t *testing.T) {
	pred := expr.MustParse("v > 0.0 and k < 25")
	f := func(seed int64, size uint8) bool {
		r := randomRelation(int(size), seed)
		out, err := Restrict(r, pred, Exec{})
		if err != nil {
			return false
		}
		// Model: scan.
		want := 0
		j := 0
		for i := 0; i < r.Len(); i++ {
			keep, err := expr.EvalPredicate(pred, r.Row(i))
			if err != nil {
				return false
			}
			if keep {
				want++
				// Order preserved.
				if j >= out.Len() || !out.Tuple(j)[0].Equal(r.Tuple(i)[0]) {
					return false
				}
				j++
			}
		}
		return out.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Partition is disjoint and, with a catch-all, complete.
func TestPartitionDisjointComplete(t *testing.T) {
	preds := []expr.Node{
		expr.MustParse("tag = 'a'"),
		expr.MustParse("tag = 'b'"),
		expr.MustParse("true"),
	}
	f := func(seed int64, size uint8) bool {
		r := randomRelation(int(size), seed)
		parts, err := Partition(r, preds, Exec{})
		if err != nil {
			return false
		}
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		if total != r.Len() {
			return false
		}
		// Disjoint: 'a' tuples only in part 0, and part 2 has no a or b.
		for i := 0; i < parts[2].Len(); i++ {
			tag := parts[2].Row(i).Attr("tag").Text()
			if tag == "a" || tag == "b" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Sort is a permutation ordered by the key.
func TestSortPermutationProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := randomRelation(int(size)+1, seed)
		out, err := Sort(r, "v", false)
		if err != nil {
			return false
		}
		if out.Len() != r.Len() {
			return false
		}
		prev := out.Row(0).Attr("v").Float()
		sum := 0.0
		for i := 0; i < out.Len(); i++ {
			v := out.Row(i).Attr("v").Float()
			if v < prev {
				return false
			}
			prev = v
			sum += v
		}
		orig := 0.0
		for i := 0; i < r.Len(); i++ {
			orig += r.Row(i).Attr("v").Float()
		}
		// Same multiset (sum as a cheap witness plus length).
		return abs(sum-orig) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: hash join and nested-loop join agree on equi-joins.
func TestJoinStrategiesAgree(t *testing.T) {
	pred := expr.MustParse("k = k2")
	f := func(seedA, seedB int64, sizeA, sizeB uint8) bool {
		a := randomRelation(int(sizeA)%40, seedA)
		// Second relation with a renamed key column so the predicate is
		// unambiguous.
		rng := rand.New(rand.NewSource(seedB))
		b := New("B", MustSchema(
			Column{Name: "k2", Kind: types.Int},
			Column{Name: "w", Kind: types.Float},
		))
		for i := 0; i < int(sizeB)%40; i++ {
			b.MustAppend([]types.Value{
				types.NewInt(int64(rng.Intn(50))),
				types.NewFloat(rng.Float64()),
			})
		}
		h, err1 := Join(a, b, pred, JoinHash, Exec{})
		n, err2 := Join(a, b, pred, JoinNestedLoop, Exec{})
		if err1 != nil || err2 != nil {
			return false
		}
		return h.Len() == n.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: indexed Restrict equals scan Restrict for every comparison
// operator.
func TestIndexedRestrictMatchesScan(t *testing.T) {
	f := func(seed int64, size uint8, boundRaw uint8) bool {
		n := int(size)%60 + 1
		scanRel := randomRelation(n, seed)
		idxRel := randomRelation(n, seed)
		if err := idxRel.CreateIndex("k"); err != nil {
			return false
		}
		bound := int64(boundRaw) % 50
		for _, op := range []string{"=", "<", "<=", ">", ">="} {
			pred := &expr.Binary{
				Op: op,
				L:  &expr.Ref{Name: "k"},
				R:  &expr.Lit{Val: types.NewInt(bound)},
			}
			a, err1 := Restrict(scanRel, pred, Exec{})
			b, err2 := Restrict(idxRel, pred, Exec{})
			if err1 != nil || err2 != nil || a.Len() != b.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: provenance always points at the true originating tuple.
func TestProvenanceProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := randomRelation(int(size)%50+5, seed)
		restricted, err := Restrict(r, expr.MustParse("v > -10.0"), Exec{})
		if err != nil {
			return false
		}
		sorted, err := Sort(restricted, "k", true)
		if err != nil {
			return false
		}
		sampled, err := Sample(sorted, 0.7, seed)
		if err != nil {
			return false
		}
		for i := 0; i < sampled.Len(); i++ {
			base, row := sampled.BaseRow(i)
			if base != r {
				return false
			}
			// The traced tuple must be identical.
			for j := range sampled.Tuple(i) {
				if !sampled.Tuple(i)[j].Equal(r.Tuple(row)[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

package rel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// mutation drives one simulated table write against a relation version,
// returning the new version and the delta op describing it — the same
// shape the db write path emits.
func randomMutation(rng *rand.Rand, r *Relation) (*Relation, DeltaOp) {
	tags := []string{"a", "b", "c", "d"}
	if r.Len() == 0 || rng.Intn(3) == 0 {
		nt := r.CowClone()
		nt.MustAppend([]types.Value{
			types.NewInt(int64(rng.Intn(50))),
			types.NewFloat(rng.Float64()*100 - 50),
			types.NewText(tags[rng.Intn(len(tags))]),
		})
		return nt, DeltaOp{Kind: DeltaAppend, Row: nt.Len() - 1, Tuple: nt.Tuple(nt.Len() - 1)}
	}
	row := rng.Intn(r.Len())
	old := r.Tuple(row)
	nt := r.CowClone()
	cols := []string{"k", "v", "tag"}
	col := cols[rng.Intn(len(cols))]
	var nv types.Value
	switch col {
	case "k":
		nv = types.NewInt(int64(rng.Intn(50)))
	case "v":
		nv = types.NewFloat(rng.Float64()*100 - 50)
	default:
		nv = types.NewText(tags[rng.Intn(len(tags))])
	}
	if err := nt.Update(row, col, nv); err != nil {
		panic(err)
	}
	return nt, DeltaOp{Kind: DeltaUpdate, Row: row, Tuple: nt.Tuple(row), Old: old}
}

// sameTuples asserts two relations are value-identical row by row.
func sameTuples(t *testing.T, label string, got, want *Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema mismatch", label)
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Tuple(i), want.Tuple(i)
		for j := range w {
			if !g[j].Equal(w[j]) {
				t.Fatalf("%s: row %d col %d: got %v want %v", label, i, j, g[j], w[j])
			}
		}
	}
}

// Differential property: maintaining a fused restrict→project pipeline
// through FusedDelta over a random write sequence produces exactly the
// relation a full scan of the final input produces — including
// provenance — with fallbacks allowed only where membership flips.
func TestFusedDeltaDifferential(t *testing.T) {
	ops := []FusedOp{
		{Pred: expr.MustParse("v > 0.0")},
		{Project: []string{"k", "v"}},
	}
	ctx := context.Background()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cur := randomRelation(30, seed)
		res, err := fusedScan(ctx, cur, ops, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		memo := res.Out
		fallbacks, applied := 0, 0
		for step := 0; step < 60; step++ {
			// Batch 1-3 writes between frames, like a burst between renders.
			var d TupleDelta
			next := cur
			for n := rng.Intn(3) + 1; n > 0; n-- {
				var op DeltaOp
				next, op = randomMutation(rng, next)
				d.Ops = append(d.Ops, op)
			}
			cur = next
			inc, outDelta, ok, err := FusedDelta(ctx, cur, memo, ops, &d)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			full, err := fusedScan(ctx, cur, ops, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				fallbacks++
				memo = full.Out
				continue
			}
			applied++
			sameTuples(t, fmt.Sprintf("seed %d step %d", seed, step), inc.Out, full.Out)
			// Provenance must match the full scan's positionally.
			for i := 0; i < inc.Out.Len(); i++ {
				ib, ir := inc.Out.BaseRow(i)
				fb, fr := full.Out.BaseRow(i)
				if ib != fb || ir != fr {
					t.Fatalf("seed %d step %d: provenance row %d: got (%p,%d) want (%p,%d)",
						seed, step, i, ib, ir, fb, fr)
				}
			}
			// The output delta must replay the memo into the new output.
			if outDelta == nil {
				t.Fatalf("seed %d step %d: ok with nil output delta", seed, step)
			}
			memo = inc.Out
		}
		if applied == 0 {
			t.Fatalf("seed %d: delta path never applied (%d fallbacks)", seed, fallbacks)
		}
	}
}

// An update that flips predicate membership is an interior insert or
// delete; the positional patch must refuse it.
func TestFusedDeltaMembershipFlipFallback(t *testing.T) {
	ctx := context.Background()
	ops := []FusedOp{{Pred: expr.MustParse("v > 0.0")}}
	r := New("T", MustSchema(
		Column{Name: "k", Kind: types.Int},
		Column{Name: "v", Kind: types.Float},
		Column{Name: "tag", Kind: types.Text},
	))
	for i := 0; i < 5; i++ {
		r.MustAppend([]types.Value{
			types.NewInt(int64(i)), types.NewFloat(float64(i) - 2), types.NewText("x"),
		})
	}
	res, err := fusedScan(ctx, r, ops, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 has v=-1 (filtered out); flip it in.
	old := r.Tuple(1)
	nt := r.CowClone()
	if err := nt.Update(1, "v", types.NewFloat(7)); err != nil {
		t.Fatal(err)
	}
	d := &TupleDelta{Ops: []DeltaOp{{Kind: DeltaUpdate, Row: 1, Tuple: nt.Tuple(1), Old: old}}}
	if _, _, ok, err := FusedDelta(ctx, nt, res.Out, ops, d); err != nil || ok {
		t.Fatalf("membership flip: ok=%v err=%v, want fallback", ok, err)
	}
	// A non-flipping update on the same row applies.
	old2 := r.Tuple(2)
	nt2 := r.CowClone()
	if err := nt2.Update(2, "k", types.NewInt(99)); err != nil {
		t.Fatal(err)
	}
	d2 := &TupleDelta{Ops: []DeltaOp{{Kind: DeltaUpdate, Row: 2, Tuple: nt2.Tuple(2), Old: old2}}}
	inc, _, ok, err := FusedDelta(ctx, nt2, res.Out, ops, d2)
	if err != nil || !ok {
		t.Fatalf("in-place update: ok=%v err=%v, want applied", ok, err)
	}
	full, err := fusedScan(ctx, nt2, ops, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "in-place update", inc.Out, full.Out)
}

// The memoized output must never be mutated by a delta application —
// holders of the old version (a client frame in flight) keep their rows.
func TestFusedDeltaDoesNotMutateMemo(t *testing.T) {
	ctx := context.Background()
	ops := []FusedOp{{Pred: expr.MustParse("v > 0.0")}}
	r := randomRelation(20, 7)
	res, err := fusedScan(ctx, r, ops, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	memo := res.Out
	wantLen := memo.Len()
	want := make([][]types.Value, wantLen)
	for i := range want {
		want[i] = memo.Tuple(i)
	}
	cur := r
	for step := 0; step < 40; step++ {
		rng := rand.New(rand.NewSource(int64(step)))
		next, op := randomMutation(rng, cur)
		cur = next
		inc, _, ok, err := FusedDelta(ctx, cur, memo, ops, &TupleDelta{Ops: []DeltaOp{op}})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			full, err := fusedScan(ctx, cur, ops, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			inc = full
		}
		if memo.Len() != wantLen {
			t.Fatalf("step %d: memo grew from %d to %d rows", step, wantLen, memo.Len())
		}
		for i := range want {
			for j := range want[i] {
				if !memo.Tuple(i)[j].Equal(want[i][j]) {
					t.Fatalf("step %d: memo row %d mutated", step, i)
				}
			}
		}
		memo = inc.Out
		wantLen = memo.Len()
		want = make([][]types.Value, wantLen)
		for i := range want {
			want[i] = memo.Tuple(i)
		}
	}
}

// joinFixtures builds the two-sided fixture used by the join state tests.
func joinFixtures(seedA, seedB int64, nA, nB int) (*Relation, *Relation) {
	a := randomRelation(nA, seedA)
	rng := rand.New(rand.NewSource(seedB))
	b := New("B", MustSchema(
		Column{Name: "k2", Kind: types.Int},
		Column{Name: "w", Kind: types.Float},
	))
	for i := 0; i < nB; i++ {
		b.MustAppend([]types.Value{
			types.NewInt(int64(rng.Intn(50))),
			types.NewFloat(rng.Float64()),
		})
	}
	return a, b
}

// mutateJoinSide applies one random write to one side of a join fixture.
func mutateJoinSide(rng *rand.Rand, r *Relation, isA bool) (*Relation, DeltaOp) {
	if r.Len() == 0 || rng.Intn(2) == 0 {
		nt := r.CowClone()
		if isA {
			tags := []string{"a", "b", "c", "d"}
			nt.MustAppend([]types.Value{
				types.NewInt(int64(rng.Intn(50))),
				types.NewFloat(rng.Float64()*100 - 50),
				types.NewText(tags[rng.Intn(len(tags))]),
			})
		} else {
			nt.MustAppend([]types.Value{
				types.NewInt(int64(rng.Intn(50))),
				types.NewFloat(rng.Float64()),
			})
		}
		return nt, DeltaOp{Kind: DeltaAppend, Row: nt.Len() - 1, Tuple: nt.Tuple(nt.Len() - 1)}
	}
	row := rng.Intn(r.Len())
	old := r.Tuple(row)
	nt := r.CowClone()
	// Mostly non-key updates (maintainable); sometimes the key (fallback).
	col, nv := "v", types.NewFloat(rng.Float64()*100-50)
	if !isA {
		col, nv = "w", types.NewFloat(rng.Float64())
	}
	if rng.Intn(5) == 0 {
		if isA {
			col, nv = "k", types.NewInt(int64(rng.Intn(50)))
		} else {
			col, nv = "k2", types.NewInt(int64(rng.Intn(50)))
		}
	}
	if err := nt.Update(row, col, nv); err != nil {
		panic(err)
	}
	return nt, DeltaOp{Kind: DeltaUpdate, Row: row, Tuple: nt.Tuple(row), Old: old}
}

// Differential property: a JoinState maintained through random write
// sequences always matches a full hash re-join of the current inputs,
// rebuilding from scratch whenever Apply declines.
func TestJoinStateDifferential(t *testing.T) {
	pred := expr.MustParse("k = k2 and v > 0.0")
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, r := joinFixtures(seed, seed+100, 25, 20)
		out, err := Join(l, r, pred, JoinHash, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		state, ok := BuildJoinState(l, r, out, pred)
		if !ok {
			t.Fatalf("seed %d: BuildJoinState declined", seed)
		}
		applied, fallbacks := 0, 0
		for step := 0; step < 50; step++ {
			var dl, dr TupleDelta
			for n := rng.Intn(3) + 1; n > 0; n-- {
				if rng.Intn(2) == 0 {
					var op DeltaOp
					l, op = mutateJoinSide(rng, l, true)
					dl.Ops = append(dl.Ops, op)
				} else {
					var op DeltaOp
					r, op = mutateJoinSide(rng, r, false)
					dr.Ops = append(dr.Ops, op)
				}
			}
			full, err := Join(l, r, pred, JoinHash, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			var dlp, drp *TupleDelta
			if len(dl.Ops) > 0 {
				dlp = &dl
			}
			if len(dr.Ops) > 0 {
				drp = &dr
			}
			newOut, _, ok := state.Apply(l, r, dlp, drp)
			if !ok {
				fallbacks++
				state, ok = BuildJoinState(l, r, full, pred)
				if !ok {
					t.Fatalf("seed %d step %d: rebuild declined", seed, step)
				}
				continue
			}
			applied++
			sameTuples(t, fmt.Sprintf("seed %d step %d", seed, step), newOut, full)
		}
		if applied == 0 {
			t.Fatalf("seed %d: join delta path never applied (%d fallbacks)", seed, fallbacks)
		}
	}
}

// Build-side updates rewrite bucket content under existing pairs; Apply
// must decline them.
func TestJoinStateBuildUpdateFallback(t *testing.T) {
	pred := expr.MustParse("k = k2")
	l, r := joinFixtures(3, 103, 20, 10) // r smaller → r is the build side
	out, err := Join(l, r, pred, JoinHash, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	state, ok := BuildJoinState(l, r, out, pred)
	if !ok {
		t.Fatal("BuildJoinState declined")
	}
	old := r.Tuple(0)
	nr := r.CowClone()
	if err := nr.Update(0, "w", types.NewFloat(123)); err != nil {
		t.Fatal(err)
	}
	dr := &TupleDelta{Ops: []DeltaOp{{Kind: DeltaUpdate, Row: 0, Tuple: nr.Tuple(0), Old: old}}}
	if _, _, ok := state.Apply(l, nr, nil, dr); ok {
		t.Fatal("build-side update applied, want fallback")
	}
}

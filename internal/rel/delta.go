package rel

import (
	"context"
	"sort"

	"repro/internal/expr"
	"repro/internal/types"
)

// Tuple-level deltas: the currency of incremental view maintenance. A
// table write is described as a small list of DeltaOps; each maintained
// operator (the fused restrict/project pipeline, the hash equi-join)
// transforms an input delta into an output delta plus an updated output
// relation, touching O(delta) rows instead of rescanning. Every function
// here is conservative: whenever the incremental result could differ from
// a full recompute — schema drift, row-order perturbation, anything the
// operator cannot maintain in place — it reports !ok and the caller falls
// back to full refiring. The differential tests assert byte-identical
// outputs against the full operators on randomized write sequences.

// DeltaKind classifies one tuple-level change.
type DeltaKind int

// Delta kinds. Appends land at the end of the relation; updates replace
// one row in place. Deletes are not represented — the db layer has no
// tuple delete, and any unrepresentable change simply skips the delta
// path.
const (
	DeltaAppend DeltaKind = iota
	DeltaUpdate
)

// String names the kind for diagnostics.
func (k DeltaKind) String() string {
	switch k {
	case DeltaAppend:
		return "append"
	case DeltaUpdate:
		return "update"
	}
	return "unknown"
}

// DeltaOp is one tuple-level change against a relation version. Row is
// the row ordinal in the relation the op produces (for an append, the new
// last row). Tuple is the row's content after the op; Old is the content
// before it (updates only). Both record the tuples as of the write, so a
// batch of ops replays sequentially without consulting intermediate
// relation versions.
type DeltaOp struct {
	Kind  DeltaKind
	Row   int
	Tuple []types.Value
	Old   []types.Value
}

// TupleDelta is an ordered batch of changes taking one relation version
// to another.
type TupleDelta struct {
	Ops []DeltaOp
}

func deltaOps(d *TupleDelta) []DeltaOp {
	if d == nil {
		return nil
	}
	return d.Ops
}

func countAppends(d *TupleDelta) int {
	n := 0
	for _, op := range deltaOps(d) {
		if op.Kind == DeltaAppend {
			n++
		}
	}
	return n
}

// FusedDelta incrementally maintains the output of a fused restrict/
// project pipeline. newIn is the input relation AFTER the delta d has
// been applied to it; oldOut is the memoized pipeline output over the
// previous version. On success it returns the new output (sharing
// untouched tuples with oldOut), the pipeline's own output delta, and
// ok=true; any situation the incremental path cannot handle — predicate
// errors, membership changes that would insert or delete interior rows,
// provenance shapes it cannot reason about — returns ok=false and the
// caller refires the full scan.
//
// oldOut is never mutated: appends extend past its length (invisible to
// holders of the old slice header, the same discipline as the CoW table
// append path) and in-place row replacements copy the outer slice first.
//
// Delta rows are evaluated one at a time, so they run on the interpreter.
func FusedDelta(ctx context.Context, newIn, oldOut *Relation, ops []FusedOp, d *TupleDelta) (*FusedResult, *TupleDelta, bool, error) {
	if len(ops) == 0 || newIn == nil || oldOut == nil {
		return nil, nil, false, nil
	}
	// The output's provenance rows must index newIn directly: newIn with
	// its own provenance would compose, and an output whose provenance was
	// lost (or points elsewhere) cannot be patched positionally.
	if newIn.provBase != nil || oldOut.provBase == nil {
		return nil, nil, false, nil
	}
	sh, err := fusedShapePass(ctx, newIn, ops, Exec{Path: PathInterp})
	if err != nil {
		// The full chain would fail the same way; let the refire surface
		// it with standard step attribution.
		return nil, nil, false, nil
	}
	// Params changed shape under the memo → the memo is for a different
	// pipeline; refire.
	if !sh.shape.schema.Equal(oldOut.schema) {
		return nil, nil, false, nil
	}
	inLen := newIn.Len() - countAppends(d)
	keep := oldOut.provRows
	outTuples := oldOut.tuples
	if inLen < 0 || len(keep) != len(outTuples) {
		return nil, nil, false, nil
	}
	if len(keep) > 0 && keep[len(keep)-1] >= inLen {
		// The memo's provenance points past the pre-delta input length, so
		// it cannot be a view over the previous version of newIn.
		return nil, nil, false, nil
	}
	copied := false
	ensureCopy := func() {
		if copied {
			return
		}
		keep = append([]int(nil), keep...)
		outTuples = append([][]types.Value(nil), outTuples...)
		copied = true
	}
	var outOps []DeltaOp
	sorted := false
	for _, op := range deltaOps(d) {
		switch op.Kind {
		case DeltaAppend:
			if op.Row != inLen || len(op.Tuple) != newIn.schema.Len() {
				return nil, nil, false, nil
			}
			row := inLen
			inLen++
			pass, err := sh.evalRow(newIn, row, op.Tuple)
			if err != nil {
				return nil, nil, false, nil
			}
			if !pass {
				continue
			}
			nt := sh.projectRow(op.Tuple)
			outTuples = append(outTuples, nt)
			keep = append(keep, row)
			outOps = append(outOps, DeltaOp{Kind: DeltaAppend, Row: len(outTuples) - 1, Tuple: nt})
		case DeltaUpdate:
			if op.Row < 0 || op.Row >= inLen || len(op.Tuple) != newIn.schema.Len() {
				return nil, nil, false, nil
			}
			if !sorted {
				// Membership lookups binary-search the keep list; every
				// producer of a restrict/project output emits rows in
				// ascending order, but verify once rather than assume.
				if !sort.IntsAreSorted(keep) {
					return nil, nil, false, nil
				}
				sorted = true
			}
			pass, err := sh.evalRow(newIn, op.Row, op.Tuple)
			if err != nil {
				return nil, nil, false, nil
			}
			j := sort.SearchInts(keep, op.Row)
			member := j < len(keep) && keep[j] == op.Row
			switch {
			case member && pass:
				nt := sh.projectRow(op.Tuple)
				ensureCopy()
				old := outTuples[j]
				outTuples[j] = nt
				outOps = append(outOps, DeltaOp{Kind: DeltaUpdate, Row: j, Tuple: nt, Old: old})
			case !member && !pass:
				// Was filtered out, still is: nothing to do.
			default:
				// The update flips predicate membership — an interior
				// insert or delete the positional patch cannot express.
				return nil, nil, false, nil
			}
		default:
			return nil, nil, false, nil
		}
	}
	out := sh.shape
	out.tuples = outTuples
	out.setProv(newIn, keep)
	return &FusedResult{Out: out, Shapes: sh.shapes}, &TupleDelta{Ops: outOps}, true, nil
}

// JoinState is the maintained state of a hash equi-join: the build-side
// hash table (bucket lists in build-row order, exactly as hashJoin
// constructs them), a probe-side index for the reverse lookup build
// appends need, and the (probeRow, buildRow) pair behind every output
// tuple in emission order. Built once with an O(n) replay, it then
// absorbs tuple deltas in O(affected pairs) per frame.
//
// A JoinState that returns ok=false from Apply is poisoned — its indexes
// may be partially advanced — and must be discarded along with the memo
// it maintained.
type JoinState struct {
	resid expr.Node // the predicate less its hash-key conjunct; nil = true
	shell *Relation // output shape: schema + surviving computed attrs
	env   *scratchEnv

	li, ri       int // key ordinals in l and r
	bi, pi       int // key ordinals in build and probe
	buildIsRight bool

	table      map[valueKey][]int // key -> build rows, in build-row order
	probeIdx   map[valueKey][]int // key -> probe rows, in probe-row order
	pairs      [][2]int           // (probeRow, buildRow) per output tuple, probe-major
	outTuples  [][]types.Value
	lLen, rLen int
}

// residual evaluates the join predicate over one key-matched candidate
// (lt, rt) pair, with identical semantics to hashJoin's emit step.
func (s *JoinState) residual(lt, rt []types.Value) (bool, error) {
	if s.resid == nil {
		return true, nil
	}
	s.env.tuple = append(append(s.env.tuple[:0], lt...), rt...)
	return expr.EvalPredicate(s.resid, s.env)
}

// outTuple materializes one output row from a kept pair.
func (s *JoinState) outTuple(lt, rt []types.Value) []types.Value {
	nt := make([]types.Value, 0, len(lt)+len(rt))
	nt = append(nt, lt...)
	return append(nt, rt...)
}

// sides orders a (probe, build) tuple pair into (left, right).
func (s *JoinState) sides(ptup, btup []types.Value) (lt, rt []types.Value) {
	if s.buildIsRight {
		return ptup, btup
	}
	return btup, ptup
}

// BuildJoinState reconstructs maintainable join state from the inputs and
// memoized output of a previous full hash join. It replays the probe loop
// to recover which (probe, build) pair produced each output row and
// requires exact agreement with the memo; any join a hash strategy would
// not have handled — no equi-conjunct, predicate errors — reports !ok.
func BuildJoinState(oldL, oldR, oldOut *Relation, pred expr.Node) (*JoinState, bool) {
	if oldL == nil || oldR == nil || oldOut == nil || pred == nil {
		return nil, false
	}
	shell, rRename, err := joinShape(oldL, oldR)
	if err != nil {
		return nil, false
	}
	if err := expr.CheckPredicate(pred, shell); err != nil {
		return nil, false
	}
	if !shell.schema.Equal(oldOut.schema) {
		return nil, false
	}
	la, ra, eq, ok := equiKey(pred, oldL, oldR, rRename)
	if !ok {
		return nil, false
	}
	li, ri := oldL.schema.Index(la), oldR.schema.Index(ra)
	if li < 0 || ri < 0 {
		return nil, false
	}
	s := &JoinState{
		resid: withoutConjunct(pred, eq),
		shell: shell,
		env:   &scratchEnv{rel: shell},
		li:    li,
		ri:    ri,
		lLen:  oldL.Len(),
		rLen:  oldR.Len(),
	}
	// Build-side selection mirrors hashJoin exactly: build on the right
	// unless the left is strictly smaller.
	build, probe := oldR, oldL
	s.bi, s.pi = ri, li
	s.buildIsRight = true
	if oldL.Len() < oldR.Len() {
		build, probe = oldL, oldR
		s.bi, s.pi = li, ri
		s.buildIsRight = false
	}
	s.table = make(map[valueKey][]int, build.Len())
	brd := build.reader()
	for row, n := 0, build.Len(); row < n; row++ {
		v := brd.value(row, s.bi)
		if v.IsNull() {
			continue
		}
		k := keyOf(v)
		s.table[k] = append(s.table[k], row)
	}
	s.probeIdx = make(map[valueKey][]int)
	prd := probe.reader()
	for row, n := 0, probe.Len(); row < n; row++ {
		v := prd.value(row, s.pi)
		if v.IsNull() {
			continue
		}
		k := keyOf(v)
		s.probeIdx[k] = append(s.probeIdx[k], row)
	}
	// Replay the probe loop to recover pair provenance. The memoized
	// output must have exactly one row per kept pair, in the same order.
	bget := build.reader()
	for prow, n := 0, probe.Len(); prow < n; prow++ {
		ptup := prd.take(prow)
		v := ptup[s.pi]
		if v.IsNull() {
			continue
		}
		for _, brow := range s.table[keyOf(v)] {
			lt, rt := s.sides(ptup, bget.take(brow))
			keep, err := s.residual(lt, rt)
			if err != nil {
				return nil, false
			}
			if keep {
				s.pairs = append(s.pairs, [2]int{prow, brow})
			}
		}
	}
	if brd.Err() != nil || prd.Err() != nil || bget.Err() != nil {
		return nil, false
	}
	if len(s.pairs) != oldOut.Len() {
		return nil, false
	}
	s.outTuples = oldOut.tuples
	return s, true
}

// Apply advances the join state by one batch of input deltas (either may
// be nil), returning the new output relation and its delta. The patched
// output must be byte-identical to a full re-join of the new inputs;
// whenever that cannot be guaranteed by appends and in-place row
// replacements alone — build-side updates, key changes, pairs that would
// interleave with existing output rows, a build-side flip — Apply
// reports ok=false, after which the state is poisoned and must be
// discarded.
func (s *JoinState) Apply(newL, newR *Relation, dl, dr *TupleDelta) (*Relation, *TupleDelta, bool) {
	if newL == nil || newR == nil {
		return nil, nil, false
	}
	if newL.Len() != s.lLen+countAppends(dl) || newR.Len() != s.rLen+countAppends(dr) {
		return nil, nil, false
	}
	// A full recompute at the new sizes must choose the same build side,
	// or output row order changes wholesale.
	if (newL.Len() < newR.Len()) == s.buildIsRight {
		return nil, nil, false
	}
	dbuild, dprobe := dr, dl
	buildRel, probeRel := newR, newL
	buildLen, probeLen := s.rLen, s.lLen
	if !s.buildIsRight {
		dbuild, dprobe = dl, dr
		buildRel, probeRel = newL, newR
		buildLen, probeLen = s.lLen, s.rLen
	}
	outTuples := s.outTuples
	pairs := s.pairs
	copied := false
	ensureCopy := func() {
		if copied {
			return
		}
		outTuples = append([][]types.Value(nil), outTuples...)
		copied = true
	}
	var outOps []DeltaOp
	prd := probeRel.reader()
	brd := buildRel.reader()

	// Phase 1 — build-side changes. New build rows may only extend their
	// bucket tails; if any existing probe row would pair with a new build
	// row (checked against the probe side's final content), the new
	// output rows would interleave with existing ones, so fall back.
	// Build-side updates would rewrite bucket content under existing
	// pairs; punt those entirely.
	for _, op := range deltaOps(dbuild) {
		if op.Kind != DeltaAppend {
			return nil, nil, false
		}
		if op.Row != buildLen || len(op.Tuple) != buildRel.schema.Len() {
			return nil, nil, false
		}
		brow := buildLen
		buildLen++
		v := op.Tuple[s.bi]
		if v.IsNull() {
			continue
		}
		k := keyOf(v)
		for _, prow := range s.probeIdx[k] {
			lt, rt := s.sides(prd.at(prow), op.Tuple)
			if prd.Err() != nil {
				return nil, nil, false
			}
			keep, err := s.residual(lt, rt)
			if err != nil || keep {
				return nil, nil, false
			}
		}
		s.table[k] = append(s.table[k], brow)
	}

	// Phase 2 — probe-side changes, in commit order. Appends probe the
	// (already final) build table and emit at the end, preserving
	// probe-major order; updates may only rewrite their own pairs in
	// place, which requires the updated row's kept-pair set to be exactly
	// what it was.
	for _, op := range deltaOps(dprobe) {
		switch op.Kind {
		case DeltaAppend:
			if op.Row != probeLen || len(op.Tuple) != probeRel.schema.Len() {
				return nil, nil, false
			}
			prow := probeLen
			probeLen++
			v := op.Tuple[s.pi]
			if v.IsNull() {
				continue
			}
			k := keyOf(v)
			for _, brow := range s.table[k] {
				lt, rt := s.sides(op.Tuple, brd.at(brow))
				if brd.Err() != nil {
					return nil, nil, false
				}
				keep, err := s.residual(lt, rt)
				if err != nil {
					return nil, nil, false
				}
				if keep {
					nt := s.outTuple(lt, rt)
					outTuples = append(outTuples, nt)
					pairs = append(pairs, [2]int{prow, brow})
					outOps = append(outOps, DeltaOp{Kind: DeltaAppend, Row: len(outTuples) - 1, Tuple: nt})
				}
			}
			s.probeIdx[k] = append(s.probeIdx[k], prow)
		case DeltaUpdate:
			if op.Row < 0 || op.Row >= probeLen ||
				len(op.Tuple) != probeRel.schema.Len() || len(op.Old) != probeRel.schema.Len() {
				return nil, nil, false
			}
			// A key change moves the row between buckets: its pairs would
			// be deleted and new interior pairs inserted.
			if keyOf(op.Old[s.pi]) != keyOf(op.Tuple[s.pi]) {
				return nil, nil, false
			}
			k := keyOf(op.Tuple[s.pi])
			if op.Tuple[s.pi].IsNull() {
				// Null keys never join; null → null is a no-op.
				continue
			}
			lo := sort.Search(len(pairs), func(i int) bool { return pairs[i][0] >= op.Row })
			hi := sort.Search(len(pairs), func(i int) bool { return pairs[i][0] > op.Row })
			// Recompute the row's kept set over its bucket, in bucket
			// order — the order its pairs were emitted in. Any deviation
			// from the existing pair list is an interior insert/delete.
			j := lo
			var newTuples [][]types.Value
			for _, brow := range s.table[k] {
				lt, rt := s.sides(op.Tuple, brd.at(brow))
				if brd.Err() != nil {
					return nil, nil, false
				}
				keep, err := s.residual(lt, rt)
				if err != nil {
					return nil, nil, false
				}
				if keep {
					if j >= hi || pairs[j][1] != brow {
						return nil, nil, false
					}
					newTuples = append(newTuples, s.outTuple(lt, rt))
					j++
				}
			}
			if j != hi {
				return nil, nil, false
			}
			if len(newTuples) > 0 {
				ensureCopy()
				for idx, nt := range newTuples {
					pos := lo + idx
					old := outTuples[pos]
					outTuples[pos] = nt
					outOps = append(outOps, DeltaOp{Kind: DeltaUpdate, Row: pos, Tuple: nt, Old: old})
				}
			}
		default:
			return nil, nil, false
		}
	}

	newOut := &Relation{schema: s.shell.schema, computed: s.shell.computed, tuples: outTuples}
	s.outTuples = outTuples
	s.pairs = pairs
	s.lLen, s.rLen = newL.Len(), newR.Len()
	return newOut, &TupleDelta{Ops: outOps}, true
}

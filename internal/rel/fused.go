package rel

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// FusedScan executes an adjacent Restrict/Project chain as one pass over
// the source relation — no intermediate relations, one (optionally
// chunk-parallel) row scan — producing exactly the relation the unfused
// chain would: same schema, computed attributes, tuples, and provenance.
// The dataflow evaluator's plan-time fusion pass (internal/dataflow's
// fuse.go) is its only intended caller, but it is independently testable
// against the unfused operators.
//
// The one observable difference from the unfused chain is error
// attribution when several rows fail: the unfused chain runs step-major
// (every row through step 1, then step 2), a fused scan runs row-major,
// so with predicate errors on multiple steps a different step may report
// first. Whether an error occurs at all is identical.

// FusedOp is one step of a fused scan: a restriction (Pred non-nil) or a
// projection (Project non-nil). Exactly one field is set.
type FusedOp struct {
	Pred    expr.Node
	Project []string
}

// FusedStepError attributes a fused-scan failure to the step that raised
// it, so the dataflow layer can blame the same box an unfused chain would.
type FusedStepError struct {
	Step int
	Err  error
}

// Error implements the error interface.
func (e *FusedStepError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying step error.
func (e *FusedStepError) Unwrap() error { return e.Err }

// FusedResult is a fused scan's output. Shapes holds one relation per
// step with the schema and computed attributes that step's unfused output
// would have — the last entry is Out itself, the earlier ones are empty
// shells the dataflow layer replays display-metadata derivation over
// (rederive reads only attribute names and kinds, never tuples).
type FusedResult struct {
	Out    *Relation
	Shapes []*Relation
}

// fusedPred is one restriction of the pipeline, bound to the shape it
// was checked against and the mapping from that shape's stored columns
// to the source relation's tuple ordinals.
type fusedPred struct {
	step   int
	node   expr.Node
	shape  *Relation
	colMap []int
}

// mappedCursor is an expr.Env reading one source row through a step's
// shape. When tup is set it is read instead of src.tuples[row] — the
// delta path evaluates tuples that are not (or not yet) the relation's
// current row content.
type mappedCursor struct {
	src *Relation
	fp  *fusedPred
	row int
	tup []types.Value
}

// AttrValue implements expr.Env.
func (m *mappedCursor) AttrValue(name string) (types.Value, bool) {
	if i := m.fp.shape.schema.Index(name); i >= 0 {
		if m.tup != nil {
			return m.tup[m.fp.colMap[i]], true
		}
		return m.src.storedValue(m.row, m.fp.colMap[i]), true
	}
	for _, c := range m.fp.shape.computed {
		if c.Name == name {
			v, err := expr.Eval(c.Expr, m)
			if err != nil {
				return types.Null, true
			}
			return v, true
		}
	}
	return types.Null, false
}

// FusedScan runs the pipeline over r under x. Errors carry the failing
// step as a *FusedStepError. The scan records a rel.fused_scan span
// (parented under the span ctx carries) with a rel.compile.pass child
// covering the shape check and, on the kernel path, kernel compilation.
// The compile pass runs — and so records — on every path, keeping trace
// structure identical across them.
func FusedScan(ctx context.Context, r *Relation, ops []FusedOp, x Exec) (*FusedResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("rel: fused scan: empty pipeline")
	}
	var sp *obs.Span
	if obs.Recording() {
		ctx, sp = obs.StartSpanCtx(ctx, obs.SpanRelFusedScan,
			"steps", strconv.Itoa(len(ops)), "rows_in", strconv.Itoa(r.Len()))
	}
	res, err := fusedScan(ctx, r, ops, x)
	if err == nil {
		sp.Annotate("rows_out", strconv.Itoa(len(res.Out.tuples)))
	}
	sp.End()
	return res, err
}

// fusedShape is the result of a fused pipeline's shape pass over a source
// relation: the per-step output shapes, the final stored-column mapping
// back to source ordinals, the checked predicates bound to their shapes
// and, when the kernel runs, their kernel programs. FusedScan's row pass
// consumes it; the incremental path (FusedDelta) reuses it to evaluate
// single rows.
type fusedShape struct {
	shape    *Relation   // final output shape (schema + surviving computed attrs)
	shapes   []*Relation // per-step shapes, last == shape
	colMap   []int       // final stored column -> source tuple ordinal
	preds    []*fusedPred
	progs    []*kernProg // one per pred; nil when the kernel does not run
	identity bool        // output columns are the source columns in place
}

// fusedShapePass replays the schema and computed-attribute derivations the
// unfused operators would perform, tracking for every surviving stored
// column its ordinal in r's tuples. Checking and kernel compilation
// happen here, once, in step order — the same order the unfused chain
// would report a bad predicate or projection in.
func fusedShapePass(ctx context.Context, r *Relation, ops []FusedOp, x Exec) (*fusedShape, error) {
	shape := &Relation{schema: r.schema, computed: r.computed}
	colMap := make([]int, r.schema.Len())
	for i := range colMap {
		colMap[i] = i
	}
	shapes := make([]*Relation, len(ops))
	var preds []*fusedPred
	var csp *obs.Span
	if obs.Recording() {
		_, csp = obs.StartSpanCtx(ctx, obs.SpanRelCompile)
	}
	defer csp.End()
	for i, op := range ops {
		switch {
		case op.Pred != nil:
			if err := expr.CheckPredicate(op.Pred, shape); err != nil {
				return nil, &FusedStepError{Step: i, Err: err}
			}
			preds = append(preds, &fusedPred{step: i, node: op.Pred, shape: shape, colMap: colMap})
			shape = shape.derive(shape.schema, true)
		case op.Project != nil:
			ns, err := shape.schema.project(op.Project)
			if err != nil {
				return nil, &FusedStepError{Step: i, Err: err}
			}
			nm := make([]int, len(op.Project))
			for j, name := range op.Project {
				nm[j] = colMap[shape.schema.Index(name)]
			}
			shape = shape.derive(ns, true)
			colMap = nm
		default:
			return nil, &FusedStepError{Step: i, Err: fmt.Errorf("rel: fused scan: step %d is neither restrict nor project", i)}
		}
		shapes[i] = shape
	}
	sh := &fusedShape{shape: shape, shapes: shapes, colMap: colMap, preds: preds}
	if kernelEligible(r, x) && len(preds) > 0 {
		maxRows := min(r.columnar().chunkRows, r.Len())
		sh.progs = make([]*kernProg, len(preds))
		for i, fp := range preds {
			sc := kernScope{schema: fp.shape.schema, colMap: fp.colMap, computed: fp.shape.computed}
			p, ok := kernelCompile(fp.node, sc, maxRows)
			if !ok {
				sh.progs = nil
				break
			}
			sh.progs[i] = p
		}
	}
	sh.identity = len(colMap) == r.schema.Len()
	for i, ci := range colMap {
		if ci != i {
			sh.identity = false
			break
		}
	}
	return sh, nil
}

// evalRow runs every predicate of the pipeline over one source tuple
// through the interpreter, returning whether it survives. tup must have
// the source relation's stored arity; row is its ordinal in src.
func (sh *fusedShape) evalRow(src *Relation, row int, tup []types.Value) (bool, error) {
	cur := &mappedCursor{src: src, row: row, tup: tup}
	for _, fp := range sh.preds {
		cur.fp = fp
		ok, err := expr.EvalPredicate(fp.node, cur)
		if err != nil {
			return false, &FusedStepError{Step: fp.step, Err: fmt.Errorf("rel: restrict: %w", err)}
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// projectRow maps one surviving source tuple into the output layout. With
// an identity column map the source tuple is shared, exactly like the full
// scan.
func (sh *fusedShape) projectRow(tup []types.Value) []types.Value {
	if sh.identity {
		return tup
	}
	nt := make([]types.Value, len(sh.colMap))
	for j, ci := range sh.colMap {
		nt[j] = tup[ci]
	}
	return nt
}

func fusedScan(ctx context.Context, r *Relation, ops []FusedOp, x Exec) (*FusedResult, error) {
	sh, err := fusedShapePass(ctx, r, ops, x)
	if err != nil {
		return nil, err
	}

	// Row pass: every predicate over every surviving row, in step order
	// per row, over the original tuples. Chunks are contiguous, so
	// concatenating their keep-lists reproduces the serial row order.
	obs.Inc(obs.RelFusedScans)
	n := r.Len()
	rows, kernOK, err := kernelFusedRows(r, sh, x)
	if err != nil {
		return nil, err
	}
	if !kernOK {
		chunks := x.chunks(n)
		chunkRows := make([][]int, chunks)
		err = runChunks(n, chunks, func(c, lo, hi int) error {
			keep := make([]int, 0, (hi-lo)/4+8)
			cur := &mappedCursor{src: r}
			for i := lo; i < hi; i++ {
				pass := true
				for _, fp := range sh.preds {
					cur.fp, cur.row = fp, i
					ok, err := expr.EvalPredicate(fp.node, cur)
					if err != nil {
						return &FusedStepError{Step: fp.step, Err: fmt.Errorf("rel: restrict: %w", err)}
					}
					if !ok {
						pass = false
						break
					}
				}
				if pass {
					keep = append(keep, i)
				}
			}
			chunkRows[c] = keep
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = collectRows(chunkRows)
	}

	// Materialize the final relation into the last shape. When every
	// source column survives in place the output shares tuple storage with
	// the input, exactly like an unfused Restrict.
	out := sh.shape
	out.tuples = make([][]types.Value, len(rows))
	rd := r.reader()
	for i, row := range rows {
		if sh.identity {
			out.tuples[i] = rd.take(row)
		} else {
			out.tuples[i] = sh.projectRow(rd.at(row))
		}
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("rel: fused scan: %w", err)
	}
	out.setProv(r, rows)
	return &FusedResult{Out: out, Shapes: sh.shapes}, nil
}

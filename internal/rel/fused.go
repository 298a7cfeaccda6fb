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

// fusedPred is one compiled (or interpreted) restriction of the pipeline,
// bound to the shape it was checked against and the mapping from that
// shape's stored columns to the source relation's tuple ordinals.
type fusedPred struct {
	step     int
	node     expr.Node
	compiled *expr.CompiledPredicate
	shape    *Relation
	colMap   []int
}

// mappedScope resolves a shape's attribute names to ordinals in the
// SOURCE tuple layout, which is what a fused scan's predicates run over.
// Computed attributes in mat resolve to their materialized slot past the
// source columns (the scan shares one matPlan across every step — a
// stored column's source ordinal is invariant across shapes, so one
// extended row serves all predicates).
type mappedScope struct {
	shape  *Relation
	colMap []int
	mat    map[string]int
}

// ResolveAttr implements expr.CompileScope.
func (s mappedScope) ResolveAttr(name string) (int, expr.Node, bool) {
	if i := s.shape.schema.Index(name); i >= 0 {
		return s.colMap[i], nil, true
	}
	if j, ok := s.mat[name]; ok {
		return j, nil, true
	}
	for _, c := range s.shape.computed {
		if c.Name == name {
			return -1, c.Expr, true
		}
	}
	return -1, nil, false
}

// mappedCursor is the interpreted counterpart of mappedScope: an expr.Env
// reading one source row through a step's shape. When tup is set it is
// read instead of src.tuples[row] — the delta path evaluates tuples that
// are not (or not yet) the relation's current row content.
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
// covering the shape-check and predicate-compilation phase. The compile
// pass runs — and so records — on every path, keeping trace structure
// identical across them.
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
// back to source ordinals, and the checked (and, when enabled, compiled)
// predicates bound to their shapes. FusedScan's row pass consumes it; the
// incremental path (FusedDelta) reuses it to evaluate single rows.
type fusedShape struct {
	shape       *Relation   // final output shape (schema + surviving computed attrs)
	shapes      []*Relation // per-step shapes, last == shape
	colMap      []int       // final stored column -> source tuple ordinal
	preds       []*fusedPred
	matp        *matPlan
	anyCompiled bool
	identity    bool // output columns are the source columns in place
}

// fusedShapePass replays the schema and computed-attribute derivations the
// unfused operators would perform, tracking for every surviving stored
// column its ordinal in r's tuples. Checking and compiling happen here,
// once, in step order — the same order the unfused chain would report a
// bad predicate or projection in.
func fusedShapePass(ctx context.Context, r *Relation, ops []FusedOp, x Exec) (*fusedShape, error) {
	shape := &Relation{schema: r.schema, computed: r.computed}
	colMap := make([]int, r.schema.Len())
	for i := range colMap {
		colMap[i] = i
	}
	var matp *matPlan
	var mat map[string]int
	shapes := make([]*Relation, len(ops))
	var preds []*fusedPred
	if err := func() error {
		var csp *obs.Span
		if obs.Recording() {
			_, csp = obs.StartSpanCtx(ctx, obs.SpanRelCompile)
		}
		defer csp.End()
		// One materialization plan for every computed attribute any
		// predicate references, evaluated once per source row and shared by
		// all steps (compiled predicates read the extended slots instead of
		// re-walking the definitions per reference).
		if x.compiles() {
			var prednodes []expr.Node
			for _, op := range ops {
				if op.Pred != nil {
					prednodes = append(prednodes, op.Pred)
				}
			}
			matp, mat = r.buildMat(prednodes...)
		}
		for i, op := range ops {
			switch {
			case op.Pred != nil:
				if err := expr.CheckPredicate(op.Pred, shape); err != nil {
					return &FusedStepError{Step: i, Err: err}
				}
				fp := &fusedPred{step: i, node: op.Pred, shape: shape, colMap: colMap}
				if x.compiles() {
					if cp, err := expr.CompilePredicate(op.Pred, mappedScope{shape: shape, colMap: colMap, mat: mat}); err == nil {
						obs.Inc(obs.RelCompile)
						fp.compiled = cp
					}
				}
				preds = append(preds, fp)
				shape = shape.derive(shape.schema, true)
			case op.Project != nil:
				ns, err := shape.schema.project(op.Project)
				if err != nil {
					return &FusedStepError{Step: i, Err: err}
				}
				nm := make([]int, len(op.Project))
				for j, name := range op.Project {
					nm[j] = colMap[shape.schema.Index(name)]
				}
				shape = shape.derive(ns, true)
				colMap = nm
			default:
				return &FusedStepError{Step: i, Err: fmt.Errorf("rel: fused scan: step %d is neither restrict nor project", i)}
			}
			shapes[i] = shape
		}
		return nil
	}(); err != nil {
		return nil, err
	}
	sh := &fusedShape{shape: shape, shapes: shapes, colMap: colMap, preds: preds, matp: matp}
	for _, fp := range preds {
		if fp.compiled != nil {
			sh.anyCompiled = true
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

// evalRow runs every predicate of the pipeline over one source tuple,
// returning whether it survives. tup must have the source relation's
// stored arity; row is its ordinal in src (used by the interpreted path
// for error parity and by provenance). The scratch slice is reused across
// calls.
func (sh *fusedShape) evalRow(src *Relation, row int, tup []types.Value, scratch []types.Value) (bool, []types.Value, error) {
	ext := tup
	if sh.matp != nil && sh.anyCompiled {
		scratch = sh.matp.extend(tup, scratch)
		ext = scratch
	}
	for _, fp := range sh.preds {
		var ok bool
		var err error
		if fp.compiled != nil {
			ok, err = fp.compiled.Eval(ext)
		} else {
			cur := &mappedCursor{src: src, fp: fp, row: row, tup: tup}
			ok, err = expr.EvalPredicate(fp.node, cur)
		}
		if err != nil {
			return false, scratch, &FusedStepError{Step: fp.step, Err: fmt.Errorf("rel: restrict: %w", err)}
		}
		if !ok {
			return false, scratch, nil
		}
	}
	return true, scratch, nil
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
	shape, colMap, preds, matp := sh.shape, sh.colMap, sh.preds, sh.matp
	shapes, anyCompiled := sh.shapes, sh.anyCompiled

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
			var cur *mappedCursor
			var scratch []types.Value
			rd := r.reader()
			for i := lo; i < hi; i++ {
				ext := rd.at(i)
				if matp != nil && anyCompiled {
					scratch = matp.extend(ext, scratch)
					ext = scratch
				}
				pass := true
				for _, fp := range preds {
					var ok bool
					var err error
					if fp.compiled != nil {
						ok, err = fp.compiled.Eval(ext)
					} else {
						if cur == nil {
							cur = &mappedCursor{src: r}
						}
						cur.fp, cur.row, cur.tup = fp, i, nil
						ok, err = expr.EvalPredicate(fp.node, cur)
					}
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
			if err := rd.Err(); err != nil {
				return fmt.Errorf("rel: fused scan: %w", err)
			}
			chunkRows[c] = keep
			return nil
		})
		if err != nil {
			return nil, err
		}

		total := 0
		for _, rs := range chunkRows {
			total += len(rs)
		}
		rows = make([]int, 0, total)
		for _, rs := range chunkRows {
			rows = append(rows, rs...)
		}
	}

	// Materialize the final relation into the last shape. When every
	// source column survives in place the output shares tuple storage with
	// the input, exactly like an unfused Restrict.
	out := shape
	identity := len(colMap) == r.schema.Len()
	for i, ci := range colMap {
		if ci != i {
			identity = false
			break
		}
	}
	out.tuples = make([][]types.Value, len(rows))
	rd := r.reader()
	if identity {
		for i, row := range rows {
			out.tuples[i] = rd.take(row)
		}
	} else {
		for i, row := range rows {
			src := rd.at(row)
			nt := make([]types.Value, len(colMap))
			for j, ci := range colMap {
				nt[j] = src[ci]
			}
			out.tuples[i] = nt
		}
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("rel: fused scan: %w", err)
	}
	out.setProv(r, rows)
	return &FusedResult{Out: out, Shapes: shapes}, nil
}

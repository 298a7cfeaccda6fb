package rel

import (
	"runtime"
	"sync"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// This file wires the expression compiler (internal/expr/compile.go) into
// the relational operators and provides the chunked parallel-scan
// machinery they share. Compilation is best-effort: every call site keeps
// the interpreted path as a fallback, and the caller's Exec can turn the
// fast paths off for one call so benchmarks and tests can measure and
// check them.

// DefaultScanThreshold is the row count below which scans stay
// single-threaded: chunk bookkeeping and goroutine handoff cost more than
// they save on small relations.
const DefaultScanThreshold = 4096

// Path selects how the compiling operators evaluate expressions.
type Path uint8

const (
	// PathAuto, the zero value, runs chunk kernels where the predicate
	// and storage allow, compiled closures where the expression compiles,
	// and the interpreter otherwise.
	PathAuto Path = iota
	// PathRow runs compiled closures row at a time, never chunk kernels:
	// the baseline that isolates the kernels' contribution.
	PathRow
	// PathInterp runs the tree-walking interpreter only: the oracle every
	// faster path is tested against.
	PathInterp
)

// Exec is the execution setting of one operator call. The zero value is
// the production setting: every fast path on, GOMAXPROCS scan workers.
type Exec struct {
	Path Path
	// Workers bounds a scan's parallel chunks. Zero or negative means
	// GOMAXPROCS; one scans serially.
	Workers int
}

// compiles reports whether x allows compiled closures (and so kernels).
func (x Exec) compiles() bool { return x.Path != PathInterp }

// kernels reports whether x allows the columnar chunk kernels.
func (x Exec) kernels() bool { return x.Path == PathAuto }

// chunks decides how many contiguous chunks an n-row scan splits into:
// 1 (serial) below DefaultScanThreshold or with one worker, else up to
// the worker count.
func (x Exec) chunks(n int) int {
	w := x.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 || n < DefaultScanThreshold {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// runChunks runs fn over [0, n) split into the given number of contiguous
// chunks, concurrently when chunks > 1. Output determinism is the
// caller's job (chunks are contiguous and ordered, so concatenating
// per-chunk results in chunk order reproduces the serial order). Error
// determinism is guaranteed here: fn stops a chunk at its first failure
// and runChunks returns the error of the lowest-numbered failed chunk —
// every row before that failure, in this or any lower chunk, succeeded,
// so the reported error is the one a serial scan would have hit first.
func runChunks(n, chunks int, fn func(chunk, lo, hi int) error) error {
	if chunks <= 1 {
		return fn(0, 0, n)
	}
	obs.Add(obs.RelScanChunks, int64(chunks))
	size := (n + chunks - 1) / chunks
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			errs[c] = fn(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// matScope adapts a relation to expr.CompileScope: stored columns
// resolve to their tuple ordinal and computed attributes listed in mat
// resolve to their materialized slot past the stored columns (see
// matPlan). Computed attributes outside mat inline their definitions
// (with the same evaluate-to-null error swallowing as Row).
type matScope struct {
	r   *Relation
	mat map[string]int
}

// ResolveAttr implements expr.CompileScope.
func (s matScope) ResolveAttr(name string) (int, expr.Node, bool) {
	if i := s.r.schema.Index(name); i >= 0 {
		return i, nil, true
	}
	if j, ok := s.mat[name]; ok {
		return j, nil, true
	}
	for _, c := range s.r.computed {
		if c.Name == name {
			return -1, c.Expr, true
		}
	}
	return -1, nil, false
}

// matPlan materializes computed attributes once per row. Inlining a
// computed definition at every Ref re-evaluates it per reference — the
// same asymptotic work as the interpreter. The plan instead extends each
// tuple with the referenced computed attributes, evaluated once in
// definition order (AddComputed guarantees definitions only reference
// stored columns and earlier computed attributes), and the main
// expression compiles against the extended layout where those names are
// plain slot reads.
type matPlan struct {
	comps []*expr.Compiled
}

// extend appends the plan's computed values to t inside scratch (reused
// across rows; pass the returned slice back in). A definition that fails
// evaluates to null, exactly like a computed Ref through an Env.
func (m *matPlan) extend(t, scratch []types.Value) []types.Value {
	ext := append(scratch[:0], t...)
	for _, c := range m.comps {
		v, err := c.Eval(ext)
		if err != nil {
			v = types.Null
		}
		ext = append(ext, v)
	}
	return ext
}

// buildMat plans materialization for the computed attributes
// transitively referenced by nodes: the map gives each its extended
// ordinal for matScope, the plan evaluates them per row. Returns nils
// when nothing is referenced or a definition fails to compile (the
// caller then compiles with plain inlining or falls back entirely).
func (r *Relation) buildMat(nodes ...expr.Node) (*matPlan, map[string]int) {
	if len(r.computed) == 0 {
		return nil, nil
	}
	defs := make(map[string]expr.Node, len(r.computed))
	for _, c := range r.computed {
		defs[c.Name] = c.Expr
	}
	need := make(map[string]bool)
	var visit func(n expr.Node)
	visit = func(n expr.Node) {
		for _, name := range expr.Refs(n) {
			if def, ok := defs[name]; ok && !need[name] {
				need[name] = true
				visit(def)
			}
		}
	}
	for _, n := range nodes {
		visit(n)
	}
	if len(need) == 0 {
		return nil, nil
	}
	width := r.schema.Len()
	plan := &matPlan{comps: make([]*expr.Compiled, 0, len(need))}
	mat := make(map[string]int, len(need))
	for _, c := range r.computed {
		if !need[c.Name] {
			continue
		}
		// mat holds only earlier names here, so a definition compiles
		// against the slots already materialized when it runs.
		ce, err := expr.Compile(c.Expr, matScope{r: r, mat: mat})
		if err != nil {
			return nil, nil
		}
		mat[c.Name] = width + len(plan.comps)
		plan.comps = append(plan.comps, ce)
	}
	return plan, mat
}

// compiledPred is a compiled predicate plus its materialization plan.
type compiledPred struct {
	p   *expr.CompiledPredicate
	mat *matPlan
}

// eval evaluates the predicate over tuple t; scratch is the caller's
// reusable materialization buffer (one per goroutine), returned possibly
// grown for the next row.
func (cp *compiledPred) eval(t, scratch []types.Value) (bool, []types.Value, error) {
	if cp.mat != nil {
		scratch = cp.mat.extend(t, scratch)
		t = scratch
	}
	ok, err := cp.p.Eval(t)
	return ok, scratch, err
}

// compiledExpr is a compiled expression plus its materialization plan.
type compiledExpr struct {
	e   *expr.Compiled
	mat *matPlan
}

// eval mirrors compiledPred.eval for value-producing expressions.
func (ce *compiledExpr) eval(t, scratch []types.Value) (types.Value, []types.Value, error) {
	if ce.mat != nil {
		scratch = ce.mat.extend(t, scratch)
		t = scratch
	}
	v, err := ce.e.Eval(t)
	return v, scratch, err
}

// compilePredicate compiles pred against the relation's tuple layout, or
// returns nil when x disables compilation or it fails (use the
// interpreter).
func (r *Relation) compilePredicate(pred expr.Node, x Exec) *compiledPred {
	if !x.compiles() {
		return nil
	}
	plan, mat := r.buildMat(pred)
	p, err := expr.CompilePredicate(pred, matScope{r: r, mat: mat})
	if err != nil {
		return nil
	}
	obs.Inc(obs.RelCompile)
	return &compiledPred{p: p, mat: plan}
}

// compileExpr compiles def against the relation's tuple layout, or
// returns nil when x disables compilation or it fails.
func (r *Relation) compileExpr(def expr.Node, x Exec) *compiledExpr {
	if !x.compiles() {
		return nil
	}
	plan, mat := r.buildMat(def)
	e, err := expr.Compile(def, matScope{r: r, mat: mat})
	if err != nil {
		return nil
	}
	obs.Inc(obs.RelCompile)
	return &compiledExpr{e: e, mat: plan}
}

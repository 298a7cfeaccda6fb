package dataflow

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/rel"
)

// EvalStats counts work done by an evaluator. It is the per-evaluator
// view of the process-wide internal/obs counters (eval.fires,
// eval.cache_hits, eval.cache_miss, eval.coalesced): every increment here
// is mirrored into the obs registry when obs is enabled, so tests and the
// lazy-vs-eager ablation bench read the struct while the shell's stats
// command and the benchmark harness read the global registry.
//
// Fields are updated under the evaluator's lock; read them only when no
// Eval is in flight.
type EvalStats struct {
	Fires     int // box firings actually executed
	CacheHits int // demands answered from the memo table
	CacheMiss int // demands requiring a firing
	Coalesced int // demands answered by joining another request's in-flight firing
}

// EvalOptions configures one evaluation request. Build it with the
// functional options (WithWorkers, Serial, WithLabel, WithoutFusion,
// WithPath) passed to Eval. Every setting is per request: concurrent
// requests on one evaluator (or in one process) never see each other's.
type EvalOptions struct {
	// Workers bounds concurrent box firings within one request, and the
	// chunk workers of each scan a firing runs. Zero or negative means
	// GOMAXPROCS.
	Workers int
	// Serial forces the single-threaded fallback: the wavefront runs
	// level by level in one goroutine, firing boxes in deterministic
	// order, and scans run serially. Useful for debugging and as the
	// determinism baseline.
	Serial bool
	// Label annotates the request's trace span and Result, so concurrent
	// requests can be told apart in a Chrome trace.
	Label string
	// NoFusion disables the plan-time fusion of adjacent restrict/project
	// chains into single fused scans (see fuse.go), firing every box
	// individually — the ablation baseline for the query fast path.
	NoFusion bool
	// Path selects which evaluator the request's relational operators
	// run expressions on (rel.PathAuto, the zero value, is the kernel).
	Path rel.Path
}

// EvalOption mutates EvalOptions.
type EvalOption func(*EvalOptions)

// WithWorkers bounds the number of boxes firing concurrently and the
// chunk workers of each scan.
func WithWorkers(n int) EvalOption { return func(o *EvalOptions) { o.Workers = n } }

// Serial forces the single-threaded fallback scheduler and serial scans.
func Serial() EvalOption { return func(o *EvalOptions) { o.Serial = true } }

// WithLabel names the request in traces and results.
func WithLabel(label string) EvalOption { return func(o *EvalOptions) { o.Label = label } }

// WithoutFusion opts the request out of restrict/project chain fusion,
// firing every box of the chain individually. Useful as the ablation
// baseline and for tests that want per-box memo entries.
func WithoutFusion() EvalOption { return func(o *EvalOptions) { o.NoFusion = true } }

// WithPath runs the request's relational operators on path p:
// rel.PathAuto (the default) on the columnar kernel, rel.PathInterp on
// the interpreter only. The ablation baselines and differential oracles
// use it; results are identical on both paths.
func WithPath(p rel.Path) EvalOption { return func(o *EvalOptions) { o.Path = p } }

// exec is the rel execution setting of the request's box firings: its
// path, and its worker bound as the scan worker count (one under Serial).
func (o EvalOptions) exec() rel.Exec {
	x := rel.Exec{Path: o.Path, Workers: o.Workers}
	if o.Serial {
		x.Workers = 1
	}
	return x
}

// Request names what to evaluate: output Port of box Box, or — when
// Input is set — whatever feeds input Port of box Box (how a viewer box
// obtains its displayable, and how "a viewer may be installed on any arc
// in a diagram" is realized: any edge's value is demandable).
type Request struct {
	Box   int
	Port  int
	Input bool
}

// Result carries the demanded value plus the work profile of the request:
// how many boxes fired, how many were answered from the memo table, how
// many coalesced onto another request's in-flight firing, and how many
// wavefront levels the demanded subgraph partitioned into.
type Result struct {
	Value     Value
	Fires     int
	CacheHits int
	Coalesced int
	Waves     int
	Label     string
}

// Evaluator runs a graph lazily with memoization. Demanding a box output
// walks upstream, reuses any box whose inputs and parameters are
// unchanged, and fires only stale boxes — the paper's "execution is lazy,
// evaluating only what is required to produce the demanded visualization"
// combined with the immediate-feedback requirement of principle 1 (an
// incremental edit re-fires only the affected suffix of the program).
//
// Independent boxes of the demanded subgraph fire concurrently: the
// evaluator partitions the subgraph into dependency levels and runs each
// level on a bounded worker pool (see wavefront.go). Concurrent Eval
// calls are safe and coalesce: two requests demanding the same stale box
// share one firing through a per-box in-flight latch. Graph mutation must
// not run concurrently with Eval — the same discipline the rest of the
// environment already follows (edits and renders alternate).
type Evaluator struct {
	g  *Graph
	fc *FireContext

	mu     sync.Mutex
	cache  map[int][]Value // memoized outputs per box
	stamps map[int]int64   // dataflow timestamp at which cache entry was computed
	flight map[int]*flight // in-progress firings, for cross-request coalescing

	// Incremental evaluation state (see delta.go). pending queues tuple
	// deltas per table box until a demand applies them; deltaState holds
	// operator-maintained structures (hash-join indexes) per box;
	// deltaTouched records the deltaClock at which a box's memo was last
	// patched or dropped by an incremental pass, so a firing that started
	// before the patch cannot store its pre-delta result over it.
	pending      map[int][]TableDelta
	deltaState   map[int]any
	deltaTouched map[int]int64
	deltaClock   int64

	// Pre-flight validation memo: checked[id] is the (possibly nil)
	// aggregate diagnostic for target id, valid while the graph clock
	// stays at checkClock. Renders demand the same target every frame, so
	// the steady-state cost of pre-flight is one map lookup.
	checked    map[int]error
	checkClock int64

	// Stats is guarded by mu; read it only between evaluations.
	Stats EvalStats
}

// flight is one in-progress box firing. Requests that find a flight for
// the box they need wait on done instead of firing a duplicate.
type flight struct {
	done  chan struct{}
	vals  []Value
	stamp int64
	err   error
}

// NewEvaluator returns an evaluator for g with table access from src (nil
// is allowed for programs without table boxes).
func NewEvaluator(g *Graph, src TableSource) *Evaluator {
	return &Evaluator{
		g:            g,
		fc:           &FireContext{Tables: src, Registry: g.registry},
		cache:        make(map[int][]Value),
		stamps:       make(map[int]int64),
		flight:       make(map[int]*flight),
		pending:      make(map[int][]TableDelta),
		deltaState:   make(map[int]any),
		deltaTouched: make(map[int]int64),
	}
}

// fireContext is the FireContext of one firing under request options o:
// the evaluator's table source and registry with the request's Exec.
func (e *Evaluator) fireContext(o EvalOptions) *FireContext {
	fc := *e.fc
	fc.Exec = o.exec()
	return &fc
}

// Graph returns the evaluated graph.
func (e *Evaluator) Graph() *Graph { return e.g }

// SetTableSource repoints table resolution at src — typically a
// db.Snap, pinning every subsequent firing to one immutable catalog
// view, or a source that itself swaps snapshots atomically. Like graph
// mutation, it must not run concurrently with Eval; callers serialize
// the swap against in-flight demands (the server holds its session
// lock exclusively while repointing and touching table boxes).
func (e *Evaluator) SetTableSource(src TableSource) { e.fc.Tables = src }

// generationBumper is implemented by displayables (display.Extended,
// Composite, Group) that carry generation stamps. Dropping a memo entry
// bumps the stamps of its displayable values so every downstream
// render-side cache (spatial cull index, display-list memo, wormhole
// interiors) keyed on those generations is retired by the same act that
// retires the dataflow memo — one invalidation spine end to end.
type generationBumper interface {
	BumpGeneration()
}

// bumpDroppedGenerations retires the generation stamps of displayables in
// a dropped memo entry.
func bumpDroppedGenerations(vals []Value) {
	for _, v := range vals {
		if b, ok := v.(generationBumper); ok {
			b.BumpGeneration()
		}
	}
}

// Invalidate drops the memo entry for a box and for every transitive
// dependent (used when an external dependency such as a base table
// changes; graph edits are tracked automatically through versions).
// Without the downstream sweep a dependent whose staleness stamp predates
// the external change would keep serving its stale memo — versions did
// not move, so stamps alone cannot see the invalidation.
func (e *Evaluator) Invalidate(id int) {
	e.InvalidateCtx(context.Background(), id)
}

// InvalidateCtx is Invalidate attributed to the request carried by ctx:
// the sweep records an eval.invalidate span (annotated with the number
// of memo entries it dropped) parented under whatever span caused the
// invalidation, so a trace shows which update fanned out to which
// boxes.
func (e *Evaluator) InvalidateCtx(ctx context.Context, id int) {
	var sp *obs.Span
	if obs.Recording() {
		_, sp = obs.StartSpanCtx(ctx, obs.SpanEvalInvalidate, "box", itoa(id))
	}
	// Reverse adjacency over the current edge set, built once per call.
	dependents := make(map[int][]int)
	for _, edge := range e.g.Edges() {
		dependents[edge.From] = append(dependents[edge.From], edge.To)
	}
	e.mu.Lock()
	seen := make(map[int]bool)
	dropped := 0
	var drop func(int)
	drop = func(id int) {
		if seen[id] {
			return
		}
		seen[id] = true
		if vals, ok := e.cache[id]; ok {
			bumpDroppedGenerations(vals)
			dropped++
		}
		delete(e.cache, id)
		delete(e.stamps, id)
		delete(e.pending, id)
		delete(e.deltaState, id)
		for _, to := range dependents[id] {
			drop(to)
		}
	}
	drop(id)
	e.mu.Unlock()
	obs.Add(obs.EvalInvalidated, int64(dropped))
	sp.Annotate("dropped", itoa(dropped))
	sp.Annotate("swept", itoa(len(seen)))
	sp.End()
}

// InvalidateAll drops the whole memo table.
func (e *Evaluator) InvalidateAll() {
	e.InvalidateAllCtx(context.Background())
}

// InvalidateAllCtx is InvalidateAll attributed to the request carried
// by ctx.
func (e *Evaluator) InvalidateAllCtx(ctx context.Context) {
	var sp *obs.Span
	if obs.Recording() {
		_, sp = obs.StartSpanCtx(ctx, obs.SpanEvalInvalidate, "box", "all")
	}
	e.mu.Lock()
	dropped := len(e.cache)
	for _, vals := range e.cache {
		bumpDroppedGenerations(vals)
	}
	e.cache = make(map[int][]Value)
	e.stamps = make(map[int]int64)
	e.pending = make(map[int][]TableDelta)
	e.deltaState = make(map[int]any)
	e.mu.Unlock()
	obs.Add(obs.EvalInvalidated, int64(dropped))
	sp.Annotate("dropped", itoa(dropped))
	sp.End()
}

// Eval evaluates the request under ctx and returns the demanded value
// with the request's work profile. Cancellation and deadlines are checked
// between box firings: a firing already in progress completes (its result
// stays in the memo for the next request), but no further boxes start.
func (e *Evaluator) Eval(ctx context.Context, req Request, opts ...EvalOption) (Result, error) {
	var o EvalOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}

	target, port := req.Box, req.Port
	var inType PortType // promotion target for Input requests
	b, err := e.g.Box(target)
	if err != nil {
		return Result{Label: o.Label}, err
	}
	if req.Input {
		if port < 0 || port >= len(b.In) {
			return Result{Label: o.Label}, evalPortErr("request", target, port, b.Kind, ErrNoSuchPort)
		}
		edge, ok := e.g.InputEdge(target, port)
		if !ok {
			return Result{Label: o.Label}, evalPortErr("request", target, port, b.Kind, ErrUnconnected)
		}
		inType = b.In[port]
		target, port = edge.From, edge.FromPort
		if b, err = e.g.Box(target); err != nil {
			return Result{Label: o.Label}, err
		}
	}
	if port < 0 || port >= len(b.Out) {
		return Result{Label: o.Label}, evalPortErr("request", target, port, b.Kind, ErrNoSuchPort)
	}

	if err := e.preflight(target); err != nil {
		return Result{Label: o.Label}, err
	}

	obs.Inc(obs.EvalDemands)
	var sp *obs.Span
	if obs.Recording() {
		// Mint (or inherit) the request's trace identity, then hang the
		// whole evaluation under one eval.demand span: waves, workers,
		// and fires all record parent links back to it.
		label := o.Label
		if label == "" {
			label = "eval"
		}
		ctx, _ = obs.EnsureTrace(ctx, label)
		args := []string{"box", itoa(target), "kind", b.Kind}
		if o.Label != "" {
			args = append(args, "label", o.Label)
		}
		ctx, sp = obs.StartSpanCtx(ctx, obs.SpanEvalDemand, args...)
	}
	t := obs.StartTimer(obs.EvalDemandNS)
	vals, res, err := e.evalTarget(ctx, target, o)
	t.Stop()
	sp.End()
	res.Label = o.Label
	if err != nil {
		return res, err
	}
	v := vals[port]
	if v == nil {
		return res, evalPortErr("request", target, port, b.Kind, ErrNoData)
	}
	if req.Input {
		pv, err := PromoteValue(v, inType)
		if err != nil {
			return res, evalPortErr("promote", req.Box, req.Port, "", err)
		}
		v = pv
	}
	res.Value = v
	return res, nil
}

// preflight validates the demanded subgraph before any box fires,
// aggregating every plan-time problem — cycles, unconnected inputs,
// type-incompatible edges, unknown kinds, bad parameters — into one
// *Error (errors.Is sees each sentinel cause). Verdicts are memoized per
// target against the graph's mutation clock, so repeated demands on an
// unchanged program cost a map lookup.
func (e *Evaluator) preflight(target int) error {
	g := e.g
	e.mu.Lock()
	if e.checked == nil || e.checkClock != g.Clock() {
		e.checked = make(map[int]error)
		e.checkClock = g.Clock()
	}
	if err, ok := e.checked[target]; ok {
		e.mu.Unlock()
		return err
	}
	e.mu.Unlock()

	err := ValidateTarget(g, target).AsError()

	e.mu.Lock()
	if e.checkClock == g.Clock() {
		e.checked[target] = err
	}
	e.mu.Unlock()
	return err
}

// EvaluateAll eagerly fires every box in the program, the strategy of
// compile-and-run systems like the original Tioga. It exists for the
// lazy-vs-eager ablation benchmark and for whole-program validation.
func (e *Evaluator) EvaluateAll() error {
	var o EvalOptions
	o.Serial = true
	o.Workers = 1
	o.NoFusion = true // eager mode wants a memo entry for every box
	for _, b := range e.g.Boxes() {
		if _, _, err := e.evalTarget(context.Background(), b.ID, o); err != nil {
			return err
		}
	}
	return nil
}

// Typecheck walks every edge and verifies compatibility, reporting all
// errors. The editor enforces types at connect time, so this matters for
// programs loaded from storage or built by tests.
func Typecheck(g *Graph) []error {
	var errs []error
	for _, e := range g.Edges() {
		fb, err := g.Box(e.From)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		tb, err := g.Box(e.To)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if e.FromPort >= len(fb.Out) || e.ToPort >= len(tb.In) {
			errs = append(errs, evalPortErr("typecheck", e.To, e.ToPort, tb.Kind, ErrNoSuchPort))
			continue
		}
		if !Compatible(fb.Out[e.FromPort], tb.In[e.ToPort]) {
			errs = append(errs, evalPortErr("typecheck", e.To, e.ToPort, tb.Kind,
				typeError(fb.Out[e.FromPort], tb.In[e.ToPort])))
		}
	}
	return errs
}

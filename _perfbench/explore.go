package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/db"
	"repro/internal/display"
	"repro/internal/viewer"
)

// The explore workload edits a Restrict predicate over Stations, whose
// output is hash-joined to Observations and drawn on a canvas, and
// times each edit from the SetParams call until the frame's PNG is
// encoded. Every edit is a cold evaluation of the restrict and the
// join; the canvas is zoomed in far enough that the viewer's share is
// small.
const (
	exploreStations   = 40000
	explorePerStation = 2
)

// Viewport of the explore canvas: a small window inside Louisiana.
var exploreView = viewport{X: -91.5, Y: 31.0, Elev: 0.15}

// predShapes are the predicate shapes an explore op rotates through:
// numeric comparisons the columnar kernels run, and the shapes they
// reject — builtins, Date parts and Text ordering — that fall back to
// compiled closures. Each shape takes one of five thresholds, spread so
// that op costs form a continuum rather than a few clusters, which
// keeps the tail percentile off a gap between clusters.
var predShapes = []func(k int) string{
	func(k int) string { return fmt.Sprintf("altitude > %d", 50+40*k) },
	func(k int) string { return fmt.Sprintf("latitude > %d and longitude < %d", 28+2*k, -90-4*k) },
	func(k int) string { return fmt.Sprintf("sqrt(altitude) > %d", 5+2*k) },
	func(k int) string { return fmt.Sprintf("year(built) > %d", 1952+8*k) },
	func(k int) string {
		return fmt.Sprintf("name < '%s'", []string{"Bay", "Char", "Glen", "Mar", "Ridge"}[k])
	},
}

const predThresholds = 5

// predStream is the seeded op stream. It runs in cycles of 25 edits
// that use every (shape, threshold) pair once, in a seeded order, so a
// run's cost mix is the same whatever the seed.
type predStream struct {
	rng   *rand.Rand
	preds []string
}

func newPredStream(seed int64) *predStream {
	return &predStream{rng: rand.New(rand.NewSource(seed))}
}

// at returns predicate i of the run.
func (ps *predStream) at(i int) string {
	for len(ps.preds) <= i {
		var cycle []string
		for _, shape := range predShapes {
			for k := 0; k < predThresholds; k++ {
				cycle = append(cycle, shape(k))
			}
		}
		ps.rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		ps.preds = append(ps.preds, cycle...)
	}
	return ps.preds[i]
}

// exploreEnv is one built explore session.
type exploreEnv struct {
	env      *core.Environment
	v        *viewer.Viewer
	restrict int
	root     dataflow.Request
}

// buildExplore builds the explore program over d with the given initial
// predicate: Stations → Restrict → hash Join ← Observations, then a
// circle display located at (longitude, latitude) on a canvas.
func buildExplore(d *db.Database, pred string) (*exploreEnv, error) {
	env := core.NewDetachedEnvironment(d)
	left, err := addChain(env,
		box{"table", dataflow.Params{"name": "Stations"}},
		box{"restrict", dataflow.Params{"pred": pred}},
	)
	if err != nil {
		return nil, err
	}
	obsBox, err := env.Program.AddBox("table", dataflow.Params{"name": "Observations"})
	if err != nil {
		return nil, err
	}
	right, err := addChain(env,
		box{"join", dataflow.Params{"pred": "id = station_id", "strategy": "hash"}},
		box{"setdisplay", dataflow.Params{"name": "display", "active": "true", "spec": "circle r=0.004 color=red"}},
		box{"setlocation", dataflow.Params{"attrs": "longitude,latitude"}},
	)
	if err != nil {
		return nil, err
	}
	if err := env.Program.Connect(left[1], 0, right[0], 0); err != nil {
		return nil, err
	}
	if err := env.Program.Connect(obsBox.ID, 0, right[0], 1); err != nil {
		return nil, err
	}
	v, err := env.AddViewer("explore", right[len(right)-1], 0, frameW, frameH)
	if err != nil {
		return nil, err
	}
	// The default cull margin (20 canvas units) would pass most of the
	// continent at this zoom; widen the window only by a marker radius.
	v.CullMargin = 0.05
	if err := exploreView.apply(v); err != nil {
		return nil, err
	}
	bs := v.Source.(viewer.BoxSource)
	return &exploreEnv{env: env, v: v, restrict: left[1],
		root: dataflow.Request{Box: bs.BoxID, Port: bs.Port, Input: true}}, nil
}

// fingerprint is an op's output identity: the evaluated relation and the
// encoded frame.
type fingerprint struct {
	rel string
	png [32]byte
}

func (e *exploreEnv) fingerprint(ctx context.Context, png []byte) (fingerprint, error) {
	res, err := e.env.Eval.Eval(ctx, e.root)
	if err != nil {
		return fingerprint{}, err
	}
	d, ok := res.Value.(display.Displayable)
	if !ok {
		return fingerprint{}, fmt.Errorf("fingerprint: root produced %T", res.Value)
	}
	return fingerprint{rel: relFingerprint(d), png: pngHash(png)}, nil
}

// setupExplore seeds the database, builds the program and renders the
// first frame, returning the session and the time that took.
func setupExplore(seed int64, first string) (*exploreEnv, time.Duration, error) {
	t0 := time.Now()
	d, err := core.SeedDatabase(exploreStations, explorePerStation, seed)
	if err != nil {
		return nil, 0, err
	}
	e, err := buildExplore(d, first)
	if err != nil {
		return nil, 0, err
	}
	if _, err := renderPNG(context.Background(), e.v); err != nil {
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

// exploreOp is one timed edit: SetParams until the PNG is encoded.
func (e *exploreEnv) op(ctx context.Context, pred string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	if err := e.env.SetParams(e.restrict, dataflow.Params{"pred": pred}); err != nil {
		return nil, 0, err
	}
	png, err := renderPNG(ctx, e.v)
	return png, time.Since(t0), err
}

// exploreRecord is what the oracle needs of one completed op.
type exploreRecord struct {
	pred string
	fp   fingerprint
}

func runExplore(cfg config) (*outcome, error) {
	out := newOutcome()
	ctx := context.Background()
	stream := newPredStream(cfg.seed)

	// Set up several times and report the median; keep the last. The
	// traced run reports no set-up time and sets up once.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var e *exploreEnv
	var setups []float64
	for i := 0; i < repeats; i++ {
		e = nil
		runtime.GC()
		var d time.Duration
		var err error
		e, d, err = setupExplore(cfg.seed, predShapes[0](0))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	out.metrics["setup_s"] = median(setups)

	if cfg.trace {
		return traceExplore(ctx, cfg, e, stream, out)
	}
	runtime.GC()
	heap := startHeapSampler()

	var lat []float64
	var recs []exploreRecord
	var pngBytes int64
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		pred := stream.at(i)
		out.attempted++
		png, d, err := e.op(ctx, pred)
		if err != nil {
			out.failed++
			lat = append(lat, ms(watchdog)) // a failed op misses every limit
			continue
		}
		lat = append(lat, ms(d))
		pngBytes += int64(len(png))
		// Fingerprint outside the timed interval.
		fp, err := e.fingerprint(ctx, png)
		if err != nil {
			return nil, err
		}
		recs = append(recs, exploreRecord{pred, fp})
	}
	elapsed := time.Since(start)
	out.metrics["heap_peak_mb"] = heap.stopMB()
	fillOpMetrics(out, lat, elapsed, exploreTail)
	out.metrics["wire_kb_per_op"] = float64(pngBytes) / 1024 / float64(len(recs))
	out.metrics["freshness_p50_ms"] = out.metrics["op_p50_ms"]
	out.metrics["freshness_p99_ms"] = out.metrics["op_p99_ms"]

	// Oracle: every op's fingerprint must equal a fresh environment's
	// evaluation of the same predicate over the same data.
	if err := checkExplore(ctx, e.env.DB, recs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkExplore evaluates each distinct predicate once in a fresh
// environment and compares every op that used it.
func checkExplore(ctx context.Context, d *db.Database, recs []exploreRecord, out *outcome) error {
	want := map[string]fingerprint{}
	for _, r := range recs {
		ref, ok := want[r.pred]
		if !ok {
			fe, err := buildExplore(d, r.pred)
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			png, err := renderPNG(ctx, fe.v)
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			if ref, err = fe.fingerprint(ctx, png); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			want[r.pred] = ref
		}
		if r.fp != ref {
			out.fail("explore: %q: got %s, fresh environment gives %s", r.pred, r.fp.rel, ref.rel)
		}
	}
	out.report["oracle_distinct_preds"] = len(want)
	out.report["oracle_ops_checked"] = len(recs)
	return nil
}

// traceExplore is the traced run: an untraced pass for the overhead
// baseline, then the same op stream with a span around every layer
// call and obs counters on, then again at GOMAXPROCS=1 for the
// evaluator's core scaling.
func traceExplore(ctx context.Context, cfg config, e *exploreEnv, stream *predStream, out *outcome) (*outcome, error) {
	zeroLayers(out)
	phase := cfg.duration / 3

	var base []float64
	deadline := time.Now().Add(phase)
	for i := 0; time.Now().Before(deadline); i++ {
		out.attempted++
		_, d, err := e.op(ctx, stream.at(i))
		if err != nil {
			out.failed++
			continue
		}
		base = append(base, ms(d))
	}

	tracedPass := func(rec *recorder, dur time.Duration) (ops int, sizes []float64, err error) {
		deadline := time.Now().Add(dur)
		for i := 0; time.Now().Before(deadline); i++ {
			out.attempted++
			t0 := time.Now()
			root := rec.add(spanOp, i, -1, t0, t0)
			if err := e.env.SetParams(e.restrict, dataflow.Params{"pred": stream.at(i)}); err != nil {
				return ops, sizes, err
			}
			rec.add(spanSetParams, i, root, t0, time.Now())
			png, err := tracedFrame(ctx, rec, i, root, e.env.Eval, e.root, e.v)
			if err != nil {
				return ops, sizes, err
			}
			rec.finish(root, time.Now())
			sizes = append(sizes, float64(len(png)))
			ops++
		}
		return ops, sizes, nil
	}
	rec := &recorder{}
	var ops int
	var sizes []float64
	c, err := counting(func() error {
		var err error
		ops, sizes, err = tracedPass(rec, phase)
		return err
	})
	if err != nil {
		return nil, err
	}
	layerMetrics(out, rec, c, ops, ops, sizes)
	opP50 := median(rec.durations(spanOp))
	sum := median(rec.durations(spanSetParams)) + out.metrics["dataflow.eval_ms_p50"] +
		out.metrics["viewer.render_ms_p50"] + out.metrics["raster.encode_ms_p50"]
	out.metrics["core.set_params_ms_p50"] = median(rec.durations(spanSetParams))
	out.metrics["bench.unattributed_frac"] = (opP50 - sum) / opP50
	out.metrics["bench.trace_overhead_frac"] = opP50/median(base) - 1
	out.report["traced_op_p50_ms"] = opP50
	out.report["untraced_op_p50_ms"] = median(base)

	// Same stream at one proc: the evaluator's scaling with cores.
	evalN := out.metrics["dataflow.eval_ms_p50"]
	one := &recorder{}
	prev := runtime.GOMAXPROCS(1)
	_, _, err = tracedPass(one, phase)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	eval1 := median(one.durations(spanEval))
	out.metrics["rel.proc_scaling"] = eval1 / evalN
	out.report["eval_ms_p50_at_1_proc"] = eval1
	out.report["eval_ms_p50_at_n_procs"] = evalN
	out.report["n_procs"] = prev
	if err := rec.writeChrome(cfg.spansOut); err != nil {
		return nil, err
	}
	return out, nil
}

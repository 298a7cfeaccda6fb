package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/expr"
	"repro/internal/raster"
	"repro/internal/rel"
	"repro/internal/viewer"
	"repro/internal/workload"
)

// comparisons is the ablation table, in run order. Names are the keys
// the -compare gate flattens the report by, so they must be unique.
var comparisons = []comparison{
	{
		name:     "wide_fanout_fetch_restrict_union",
		workload: "one Stations table fanned out to branches slowfetch→restrict chains, union-merged; an op is a cold eval (InvalidateAll + Eval of the root)",
		quick:    params{"rows": 2000, "branches": 12, "workers": 4, "fetch_ms": 15},
		full:     params{"rows": 6000, "branches": 12, "workers": 4, "fetch_ms": 25},
		setup:    setupFanout,
	},
	{
		name:     "stations_pan_zoom",
		workload: "a pan/zoom script over a Stations canvas with an expression-heavy display; an op is one 640x480 frame",
		quick:    params{"rows": 20000},
		full:     params{"rows": 100000},
		setup:    setupPanZoom,
	},
	{
		name:     "restrict_join_pipeline",
		workload: "restrict→project→restrict over computed attributes plus a hash join with an arithmetic residual; an op is a cold eval of both",
		quick:    params{"rows": 8000, "per_station": 1},
		full:     params{"rows": 60000, "per_station": 2},
		setup:    setupQueryPipeline,
	},
	{
		// Quick mode keeps the full table size and only trims frames:
		// the speedup is O(rows) by design (delta frames cost O(changed
		// tuples), full frames O(table)), so a smaller table would trip
		// the cross-scale gate on a ratio that regressed only in scale.
		name:     "stations_live",
		workload: "appends_per_frame Observations appends per frame into a restrict→hash-join chain; an op is one frame's enqueue or touch plus demand, the appends untimed",
		quick:    params{"rows": 100000, "per_station": 1, "appends_per_frame": 10, "frames": 8},
		full:     params{"rows": 100000, "per_station": 1, "appends_per_frame": 10, "frames": 30},
		setup:    setupStationsLive,
	},
	{
		name:     "columnar_scan",
		workload: "an arithmetic restrict over computed Stations attributes feeding a hash join against a states dimension, then the same over a chunk-backed segment under a memory quota",
		quick:    params{"rows": 12000},
		full:     params{"rows": 100000},
		floor:    2.0,
		setup:    setupColumnarScan,
	},
}

// registerSlowFetch installs a bench-only R -> R box that passes its
// input through after a fixed delay, standing in for the per-query
// POSTGRES fetch latency of the paper's client/server deployment
// (Tioga-2 boxes issue queries to a database server; this repo's
// in-memory tables answer instantly, so the latency the wavefront
// scheduler exists to overlap is simulated explicitly).
func registerSlowFetch(reg *dataflow.Registry) {
	reg.MustRegister(&dataflow.Kind{
		Name:          "slowfetch",
		Doc:           "Bench-only: identity on R after a simulated server fetch delay (param ms).",
		ExampleParams: dataflow.Params{"ms": "10"},
		Ports: func(p dataflow.Params) (in, out []dataflow.PortType, err error) {
			return []dataflow.PortType{dataflow.RType}, []dataflow.PortType{dataflow.RType}, nil
		},
		Fire: func(fc *dataflow.FireContext, p dataflow.Params, in []dataflow.Value) ([]dataflow.Value, error) {
			ms, err := strconv.Atoi(p["ms"])
			if err != nil {
				return nil, fmt.Errorf("slowfetch: bad ms param %q", p["ms"])
			}
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return []dataflow.Value{in[0]}, nil
		},
	})
}

// buildFanout constructs the wide-fanout program: one table feeding
// `branches` independent fetch+restrict chains — a slowfetch modeling
// the per-branch server round trip, then a restrict with an
// arithmetic-heavy predicate — merged back to a single root by a
// binary tree of union boxes. All fetches share a wavefront level, as
// do all restricts, so the parallel scheduler can fire each level's
// boxes concurrently.
func buildFanout(env *core.Environment, branches, fetchMS int) (root int, err error) {
	tb, err := env.AddBox("table", map[string]string{"name": "Stations"})
	if err != nil {
		return 0, err
	}
	var layer []*dataflow.Box
	for i := 0; i < branches; i++ {
		fb, err := env.AddBox("slowfetch", map[string]string{"ms": strconv.Itoa(fetchMS)})
		if err != nil {
			return 0, err
		}
		if err := env.Connect(tb.ID, 0, fb.ID, 0); err != nil {
			return 0, err
		}
		pred := fmt.Sprintf(
			"sqrt((longitude + 200.0) * (longitude + 200.0) + latitude * latitude + altitude) + sin(latitude * %d.0) * sin(longitude * %d.0) > %d.0",
			i+1, i+2, 190+i)
		rb, err := env.AddBox("restrict", map[string]string{"pred": pred})
		if err != nil {
			return 0, err
		}
		if err := env.Connect(fb.ID, 0, rb.ID, 0); err != nil {
			return 0, err
		}
		layer = append(layer, rb)
	}
	for len(layer) > 1 {
		var next []*dataflow.Box
		for i := 0; i+1 < len(layer); i += 2 {
			ub, err := env.AddBox("union", nil)
			if err != nil {
				return 0, err
			}
			if err := env.Connect(layer[i].ID, 0, ub.ID, 0); err != nil {
				return 0, err
			}
			if err := env.Connect(layer[i+1].ID, 0, ub.ID, 1); err != nil {
				return 0, err
			}
			next = append(next, ub)
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
	}
	return layer[0].ID, nil
}

// fingerprint renders a demanded R value to a canonical string so two
// evaluation paths can be checked for identical output.
func fingerprint(v any) (string, error) {
	e, ok := v.(*display.Extended)
	if !ok {
		return "", fmt.Errorf("output is %T, want *display.Extended", v)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d\n", e.Label, e.Rel.Len())
	for i := 0; i < e.Rel.Len(); i++ {
		fmt.Fprintf(&sb, "%v\n", e.Rel.Tuple(i))
	}
	return sb.String(), nil
}

// relFingerprint renders a relation the same way.
func relFingerprint(sb *strings.Builder, j *rel.Relation) {
	fmt.Fprintf(sb, "join %d\n", j.Len())
	for i := 0; i < j.Len(); i++ {
		fmt.Fprintf(sb, "%v\n", j.Tuple(i))
	}
}

// setupFanout times the wide-fanout program under the serial and the
// parallel wavefront scheduler.
func setupFanout(p params) (*ablation, error) {
	env, err := core.NewSeededEnvironment(p["rows"], 1, 42)
	if err != nil {
		return nil, err
	}
	registerSlowFetch(env.Registry)
	root, err := buildFanout(env, p["branches"], p["fetch_ms"])
	if err != nil {
		return nil, err
	}
	eval := func(opts ...dataflow.EvalOption) func() (any, error) {
		return func() (any, error) {
			env.Eval.InvalidateAll()
			res, err := env.Eval.Eval(context.Background(), dataflow.Request{Box: root, Port: 0}, opts...)
			return res.Value, err
		}
	}
	return &ablation{
		baseline:    leg{mode: "serial", op: eval(dataflow.Serial())},
		fast:        leg{mode: "parallel", op: eval(dataflow.WithWorkers(p["workers"]))},
		fingerprint: fingerprint,
	}, nil
}

// panZoomFrame is one step of the pan/zoom script.
type panZoomFrame struct{ x, y, elev float64 }

// panZoomScript is the interaction the render caches target — the
// paper's pan-and-zoom browsing regime, where each frame sees a small
// window of a large, stable dataset: a run of small pan steps across
// Louisiana at constant elevation, a zoom in/out, and a revisit of an
// earlier viewpoint.
func panZoomScript() []panZoomFrame {
	var frames []panZoomFrame
	for i := 0; i < 10; i++ { // pan strip across Louisiana
		frames = append(frames, panZoomFrame{-93.5 + 0.2*float64(i), 31, 0.35})
	}
	return append(frames,
		panZoomFrame{-91.7, 31, 0.12}, // zoom in
		panZoomFrame{-91.7, 31, 0.35}, // zoom back out
		panZoomFrame{-93.5, 31, 0.35}, // revisit the strip's start
		panZoomFrame{-93.3, 31, 0.35},
	)
}

// newPanZoomViewer builds the workload viewer: a large stations
// relation with an expression-heavy display (the memo's target —
// display evaluation that costs something).
func newPanZoomViewer(rows int, cached bool) (*viewer.Viewer, error) {
	st := workload.Stations(rows, 1)
	fn, err := draw.ParseSpec("circle rexpr='sqrt(altitude + 1.0) / 3000' color=blue + circle rexpr='(sin(latitude) * sin(latitude) + 1.0) / 500' color=red")
	if err != nil {
		return nil, err
	}
	e, err := display.NewExtended("stations", st,
		[]string{"longitude", "latitude"},
		[]display.NamedDisplay{{Name: "display", Fn: fn}})
	if err != nil {
		return nil, err
	}
	v := viewer.New("render-bench", viewer.DirectSource{D: e}, 640, 480)
	// The default cull margin (20 canvas units) is sized for coarse
	// canvases; these drawables reach at most ~0.05 degrees, so a huge
	// margin would just drag most of the continent through the pipeline.
	v.CullMargin = 0.1
	if !cached {
		v.DisableSpatialIndex = true
		v.DisableDisplayMemo = true
		v.DisableWormholeCache = true
	}
	return v, nil
}

// setupPanZoom plays the script with the cross-frame render caches on
// and off. Each leg's op renders the next frame of the script into its
// own image; the identity pass compares every frame's PNG bytes, and
// leaves the cached viewer warm, as steady-state panning finds it.
func setupPanZoom(p params) (*ablation, error) {
	script := panZoomScript()
	player := func(cached bool) (func() (any, error), error) {
		v, err := newPanZoomViewer(p["rows"], cached)
		if err != nil {
			return nil, err
		}
		img := raster.NewImage(v.W, v.H)
		next := 0
		return func() (any, error) {
			f := script[next]
			next = (next + 1) % len(script)
			if err := v.PanTo(0, f.x, f.y); err != nil {
				return nil, err
			}
			if err := v.SetElevation(0, f.elev); err != nil {
				return nil, err
			}
			_, err := v.RenderInto(img)
			return img, err
		}, nil
	}
	uncached, err := player(false)
	if err != nil {
		return nil, err
	}
	cached, err := player(true)
	if err != nil {
		return nil, err
	}
	return &ablation{
		baseline: leg{mode: "uncached", op: uncached},
		fast:     leg{mode: "cached", op: cached},
		fingerprint: func(out any) (string, error) {
			var b bytes.Buffer
			err := out.(*raster.Image).WritePNG(&b)
			return b.String(), err
		},
		checkOps: len(script),
	}, nil
}

// buildQueryPipeline gives Stations the computed attributes dist2 (a
// squared distance from a reference point) and score (derived from
// dist2), then wires table → restrict → project → restrict — the
// canonical fusible chain — with predicates that reference the computed
// attributes repeatedly. This is the workload the fast path is built
// for: the interpreter re-walks a computed definition at every
// reference, the kernel evaluates each once per chunk.
func buildQueryPipeline(env *core.Environment) (int, error) {
	err := env.DB.AlterTable("Stations", func(st *rel.Relation) error {
		if err := st.AddComputed("dist2", expr.MustParse(
			"(longitude + 92.0) * (longitude + 92.0) + (latitude - 31.0) * (latitude - 31.0)")); err != nil {
			return err
		}
		return st.AddComputed("score", expr.MustParse(
			"dist2 * 0.5 + altitude / 100.0"))
	})
	if err != nil {
		return 0, err
	}
	tb, err := env.AddBox("table", map[string]string{"name": "Stations"})
	if err != nil {
		return 0, err
	}
	r1, err := env.AddBox("restrict", map[string]string{
		"pred": "score > 2.0 and dist2 < 4000.0 and score + dist2 * 0.25 < 9000.0 and dist2 * 0.125 - score / 2.0 < 4500.0",
	})
	if err != nil {
		return 0, err
	}
	pb, err := env.AddBox("project", map[string]string{"attrs": "id,name,longitude,latitude,altitude"})
	if err != nil {
		return 0, err
	}
	r2, err := env.AddBox("restrict", map[string]string{
		"pred": "(dist2 * 0.5 + score < 6000.0 or score / 4.0 > 1.0) and score - dist2 / 16.0 < 8000.0",
	})
	if err != nil {
		return 0, err
	}
	chain := []int{tb.ID, r1.ID, pb.ID, r2.ID}
	for i := 0; i+1 < len(chain); i++ {
		if err := env.Connect(chain[i], 0, chain[i+1], 0); err != nil {
			return 0, err
		}
	}
	return r2.ID, nil
}

// queryOutput is one restrict_join_pipeline op's two results.
type queryOutput struct {
	chain dataflow.Value
	join  *rel.Relation
}

// setupQueryPipeline times the fusible chain plus a hash join with every
// fast-path layer ablated (tree-walking interpreter, per-box firing, one
// scan worker) against the default engine.
func setupQueryPipeline(p params) (*ablation, error) {
	env, err := core.NewSeededEnvironment(p["rows"], p["per_station"], 42)
	if err != nil {
		return nil, err
	}
	tail, err := buildQueryPipeline(env)
	if err != nil {
		return nil, err
	}
	st := workload.Stations(p["rows"], 42)
	obsRel, err := workload.Observations(st, p["per_station"], 43)
	if err != nil {
		return nil, err
	}
	// The join residual leans on computed attributes too: degf and
	// elev_adj are re-derived per candidate pair by the interpreter,
	// which evaluates join residuals on both legs.
	if err := st.AddComputed("elev_adj", expr.MustParse("altitude / 1000.0 + latitude * 0.1")); err != nil {
		return nil, err
	}
	if err := obsRel.AddComputed("degf", expr.MustParse("temperature * 1.8 + 32.0")); err != nil {
		return nil, err
	}
	joinPred := expr.MustParse("id = station_id and degf > 60.0 and degf < 110.0 and precipitation * 25.4 < elev_adj * 100.0 + degf - 30.0 and degf * 0.5 + elev_adj * 2.0 < 300.0")

	iterate := func(x rel.Exec, opts ...dataflow.EvalOption) func() (any, error) {
		return func() (any, error) {
			env.Eval.InvalidateAll()
			res, err := env.Eval.Eval(context.Background(), dataflow.Request{Box: tail, Port: 0}, opts...)
			if err != nil {
				return nil, err
			}
			j, err := rel.Join(st, obsRel, joinPred, rel.JoinHash, x)
			return queryOutput{res.Value, j}, err
		}
	}
	return &ablation{
		baseline: leg{mode: "interpreted", op: iterate(rel.Exec{Path: rel.PathInterp, Workers: 1},
			dataflow.WithPath(rel.PathInterp), dataflow.WithoutFusion(), dataflow.Serial())},
		fast: leg{mode: "kernel+fused", op: iterate(rel.Exec{}, dataflow.Serial())},
		fingerprint: func(out any) (string, error) {
			q := out.(queryOutput)
			fp, err := fingerprint(q.chain)
			if err != nil {
				return "", err
			}
			var sb strings.Builder
			sb.WriteString(fp)
			relFingerprint(&sb, q.join)
			return sb.String(), nil
		},
	}, nil
}

package tioga

// The benchmark harness regenerates every paper artifact (figures 1-11)
// and measures the design choices the paper motivates: lazy demand-driven
// evaluation, Sample for interactive response, viewport/slider/elevation
// culling before display evaluation, memoized incremental edits, and the
// join strategies behind the Join box. EXPERIMENTS.md records the
// measured numbers next to the paper's qualitative claims.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/viewer"
	"repro/internal/workload"
)

const (
	benchStations   = 400
	benchPerStation = 132
	benchSeed       = 42
)

func benchEnv(b *testing.B) *core.Environment {
	b.Helper()
	env, err := core.NewSeededEnvironment(benchStations, benchPerStation, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// renderCanvas renders the named canvas b.N times, reporting per-frame
// stats once.
func renderCanvas(b *testing.B, env *core.Environment, canvas string) {
	b.Helper()
	v, err := env.Canvas(canvas)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the dataflow caches; the benchmark measures interactive
	// re-rendering, the operation a browsing user repeats.
	if _, _, err := v.Render(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last viewer.RenderStats
	for i := 0; i < b.N; i++ {
		_, stats, err := v.Render()
		if err != nil {
			b.Fatal(err)
		}
		last = stats
	}
	b.ReportMetric(float64(last.DisplaysEvaled), "displays/frame")
	b.ReportMetric(float64(last.DrawablesDrawn), "drawables/frame")
}

// --- one benchmark per paper figure -----------------------------------

func BenchmarkFigure1TableView(b *testing.B) {
	env := benchEnv(b)
	canvas, err := core.Figure1(env)
	if err != nil {
		b.Fatal(err)
	}
	renderCanvas(b, env, canvas)
}

func BenchmarkFigure2ProgramOps(b *testing.B) {
	// The program-window operations of Figure 2: add, connect, T, replace,
	// save, load, undo — the edit loop of incremental programming.
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := env.AddTable("Stations")
		if err != nil {
			b.Fatal(err)
		}
		rb, err := env.AddBox("restrict", dataflow.Params{"pred": "state = 'LA'"})
		if err != nil {
			b.Fatal(err)
		}
		if err := env.Connect(tb.ID, 0, rb.ID, 0); err != nil {
			b.Fatal(err)
		}
		pj, err := env.AddBox("project", dataflow.Params{"attrs": "id,name"})
		if err != nil {
			b.Fatal(err)
		}
		if err := env.Connect(rb.ID, 0, pj.ID, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := env.InsertT(pj.ID, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := env.ReplaceBox(rb.ID, "sample", dataflow.Params{"p": "0.5"}); err != nil {
			b.Fatal(err)
		}
		if err := env.SaveProgram("bench"); err != nil {
			b.Fatal(err)
		}
		if _, err := env.LoadProgram("bench"); err != nil {
			b.Fatal(err)
		}
		if err := env.NewProgram(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3DatabaseOps(b *testing.B) {
	ctx := context.Background()
	// The database operations of Figure 3 as one cold pipeline: Add Table
	// -> Restrict -> Join -> Sample -> Project.
	env := benchEnv(b)
	st, _ := env.AddTable("Stations")
	la, _ := env.AddBox("restrict", dataflow.Params{"pred": "state = 'LA'"})
	obs, _ := env.AddTable("Observations")
	jn, _ := env.AddBox("join", dataflow.Params{"pred": "id = station_id"})
	sm, _ := env.AddBox("sample", dataflow.Params{"p": "0.25", "seed": "9"})
	pj, _ := env.AddBox("project", dataflow.Params{"attrs": "name,obs_date,temperature"})
	mustB(b, env.Connect(st.ID, 0, la.ID, 0))
	mustB(b, env.Connect(la.ID, 0, jn.ID, 0))
	mustB(b, env.Connect(obs.ID, 0, jn.ID, 1))
	mustB(b, env.Connect(jn.ID, 0, sm.ID, 0))
	mustB(b, env.Connect(sm.ID, 0, pj.ID, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Eval.InvalidateAll()
		if _, err := env.Eval.Eval(ctx, dataflow.Request{Box: pj.ID}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4StationMap(b *testing.B) {
	env := benchEnv(b)
	canvas, err := core.Figure4(env)
	if err != nil {
		b.Fatal(err)
	}
	renderCanvas(b, env, canvas)
}

func BenchmarkFigure5AttributeOps(b *testing.B) {
	ctx := context.Background()
	// The Figure 5 pipeline: add, set, scale, translate, swap attributes
	// and combine displays, evaluated cold.
	env := benchEnv(b)
	tb, _ := env.AddTable("Stations")
	add, _ := env.AddBox("addattr", dataflow.Params{"name": "ft", "def": "altitude * 3.28"})
	sc, _ := env.AddBox("scaleattr", dataflow.Params{"name": "ft", "by": "0.001"})
	tr, _ := env.AddBox("translateattr", dataflow.Params{"name": "ft", "by": "1"})
	d1, _ := env.AddBox("setdisplay", dataflow.Params{"name": "circ", "spec": "circle r=0.05", "active": "true"})
	d2, _ := env.AddBox("setdisplay", dataflow.Params{"name": "lbl", "spec": "text attr=name size=0.01"})
	cb, _ := env.AddBox("combinedisplays", dataflow.Params{"a": "circ", "b": "lbl", "name": "both"})
	sw, _ := env.AddBox("swapattr", dataflow.Params{"a": "both", "b": "circ"})
	ids := []int{tb.ID, add.ID, sc.ID, tr.ID, d1.ID, d2.ID, cb.ID, sw.ID}
	for i := 0; i+1 < len(ids); i++ {
		mustB(b, env.Connect(ids[i], 0, ids[i+1], 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Eval.InvalidateAll()
		if _, err := env.Eval.Eval(ctx, dataflow.Request{Box: sw.ID}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7DrillDown(b *testing.B) {
	env := benchEnv(b)
	canvas, err := core.Figure7(env)
	if err != nil {
		b.Fatal(err)
	}
	v, _ := env.Canvas(canvas)
	if err := v.SetElevation(0, 2); err != nil { // labels visible: worst case
		b.Fatal(err)
	}
	renderCanvas(b, env, canvas)
}

func BenchmarkFigure8Wormhole(b *testing.B) {
	// Full traversal cycle: reveal, descend through, mirror, go back.
	env := benchEnv(b)
	mapCanvas, _, nav, err := core.Figure8(env)
	if err != nil {
		b.Fatal(err)
	}
	mv, _ := env.Canvas(mapCanvas)
	if _, _, err := mv.Render(); err != nil {
		b.Fatal(err)
	}
	hits := mv.Hits()
	if len(hits) == 0 {
		b.Fatal("no stations")
	}
	row := hits[0].Ext.Rel.Row(hits[0].Row)
	lon, _ := row.Attr("longitude").AsFloat()
	lat, _ := row.Attr("latitude").AsFloat()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustB(b, mv.PanTo(0, lon, lat))
		mustB(b, mv.SetElevation(0, 0.4))
		passed, err := nav.Descend(0)
		if err != nil {
			b.Fatal(err)
		}
		if !passed {
			b.Fatal("no traversal")
		}
		if _, err := nav.RenderMirror(160, 120); err != nil {
			b.Fatal(err)
		}
		if err := nav.GoBack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Magnifier(b *testing.B) {
	env := benchEnv(b)
	canvas, _, err := core.Figure9(env)
	if err != nil {
		b.Fatal(err)
	}
	renderCanvas(b, env, canvas)
}

func BenchmarkFigure10Stitch(b *testing.B) {
	env := benchEnv(b)
	canvas, err := core.Figure10(env)
	if err != nil {
		b.Fatal(err)
	}
	renderCanvas(b, env, canvas)
}

func BenchmarkFigure11Replicate(b *testing.B) {
	env := benchEnv(b)
	canvas, err := core.Figure11(env)
	if err != nil {
		b.Fatal(err)
	}
	renderCanvas(b, env, canvas)
}

func BenchmarkUpdatePath(b *testing.B) {
	// Section 8: click -> provenance -> per-type update function -> SQL
	// update -> canvas refresh.
	env := benchEnv(b)
	canvas, err := core.Figure4(env)
	if err != nil {
		b.Fatal(err)
	}
	v, _ := env.Canvas(canvas)
	if _, _, err := v.Render(); err != nil {
		b.Fatal(err)
	}
	h := v.Hits()[0]
	cx := (h.Screen.Min.X + h.Screen.Max.X) / 2
	cy := (h.Screen.Min.Y + h.Screen.Max.Y) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.UpdateAt(canvas, cx, cy, "altitude", "123.5"); err != nil {
			b.Fatal(err)
		}
		if _, _, err := v.Render(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- performance-claim ablations ---------------------------------------

// BenchmarkLazyVsEagerEvaluation quantifies "execution is lazy,
// evaluating only what is required to produce the demanded visualization"
// (Section 2): a program with 8 independent branches of which a viewer
// demands one. Eager evaluation (the original Tioga's compile-and-run
// model) pays for all branches.
func BenchmarkLazyVsEagerEvaluation(b *testing.B) {
	ctx := context.Background()
	build := func(b *testing.B) (*core.Environment, int) {
		env := benchEnv(b)
		demandID := 0
		for i := 0; i < 8; i++ {
			tb, _ := env.AddTable("Observations")
			rb, _ := env.AddBox("restrict", dataflow.Params{"pred": fmt.Sprintf("station_id %% 8 = %d", i)})
			ab, _ := env.AddBox("addattr", dataflow.Params{"name": "f", "def": "temperature * 1.8 + 32"})
			mustB(b, env.Connect(tb.ID, 0, rb.ID, 0))
			mustB(b, env.Connect(rb.ID, 0, ab.ID, 0))
			if i == 0 {
				demandID = ab.ID
			}
		}
		return env, demandID
	}
	b.Run("Lazy", func(b *testing.B) {
		env, id := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Eval.InvalidateAll()
			if _, err := env.Eval.Eval(ctx, dataflow.Request{Box: id}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Eager", func(b *testing.B) {
		env, _ := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Eval.InvalidateAll()
			if err := env.Eval.EvaluateAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSampleInteractivity quantifies "Sample is useful for improving
// interactive response by reducing the size of data sets to be processed"
// (Figure 3): end-to-end render latency of the observations scatter as
// the sampling probability drops.
func BenchmarkSampleInteractivity(b *testing.B) {
	for _, p := range []string{"1.0", "0.5", "0.1", "0.01"} {
		b.Run("p="+p, func(b *testing.B) {
			env := benchEnv(b)
			tb, _ := env.AddTable("Observations")
			sm, _ := env.AddBox("sample", dataflow.Params{"p": p, "seed": "3"})
			ab, _ := env.AddBox("addattr", dataflow.Params{"name": "t", "def": "(obs_date - date(1985,1,1)) / 30"})
			d, _ := env.AddBox("setdisplay", dataflow.Params{"name": "display", "spec": "circle r=0.5", "active": "true"})
			loc, _ := env.AddBox("setlocation", dataflow.Params{"attrs": "t,temperature"})
			ids := []int{tb.ID, sm.ID, ab.ID, d.ID, loc.ID}
			for i := 0; i+1 < len(ids); i++ {
				mustB(b, env.Connect(ids[i], 0, ids[i+1], 0))
			}
			v, err := env.AddViewer("s"+p, loc.ID, 0, 640, 480)
			if err != nil {
				b.Fatal(err)
			}
			mustB(b, v.PanTo(0, 66, 14))
			mustB(b, v.SetElevation(0, 40))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Cold pipeline each frame: sampling pays off when the
				// data must be reprocessed.
				env.Eval.InvalidateAll()
				if _, _, err := v.Render(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkViewportCulling measures render cost against the fraction of
// the canvas visible: the pipeline filters tuples to "the visible real
// estate on the screen" before computing display attributes.
func BenchmarkViewportCulling(b *testing.B) {
	for _, tc := range []struct {
		name string
		elev float64
	}{
		{"AllVisible", 80}, {"Tenth", 8}, {"Hundredth", 0.8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			env := benchEnv(b)
			tb, _ := env.AddTable("Observations")
			ab, _ := env.AddBox("addattr", dataflow.Params{"name": "t", "def": "(obs_date - date(1985,1,1)) / 30"})
			d, _ := env.AddBox("setdisplay", dataflow.Params{"name": "display", "spec": "circle r=0.3", "active": "true"})
			loc, _ := env.AddBox("setlocation", dataflow.Params{"attrs": "t,temperature"})
			ids := []int{tb.ID, ab.ID, d.ID, loc.ID}
			for i := 0; i+1 < len(ids); i++ {
				mustB(b, env.Connect(ids[i], 0, ids[i+1], 0))
			}
			v, err := env.AddViewer("v", loc.ID, 0, 640, 480)
			if err != nil {
				b.Fatal(err)
			}
			v.CullMargin = 1
			mustB(b, v.PanTo(0, 66, 14))
			mustB(b, v.SetElevation(0, tc.elev))
			if _, _, err := v.Render(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var stats viewer.RenderStats
			for i := 0; i < b.N; i++ {
				_, s, err := v.Render()
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.DisplaysEvaled), "displays/frame")
			b.ReportMetric(float64(stats.TuplesCulled), "culled/frame")
		})
	}
}

// BenchmarkElevationCulling measures Set Range's effect: layers outside
// the viewing elevation contribute nothing, at almost no cost.
func BenchmarkElevationCulling(b *testing.B) {
	for _, visible := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("VisibleLayers=%d", visible), func(b *testing.B) {
			env := benchEnv(b)
			var prev int
			for layer := 0; layer < 8; layer++ {
				lo, hi := "0", "1000"
				if layer >= visible {
					lo, hi = "2000", "3000" // never visible at elevation 2.2
				}
				last, err := figureStationChain(env, lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				if layer == 0 {
					prev = last
					continue
				}
				ov, _ := env.AddBox("overlay", nil)
				mustB(b, env.Connect(prev, 0, ov.ID, 0))
				mustB(b, env.Connect(last, 0, ov.ID, 1))
				prev = ov.ID
			}
			v, err := env.AddViewer("v", prev, 0, 640, 480)
			if err != nil {
				b.Fatal(err)
			}
			mustB(b, v.PanTo(0, -91.5, 31))
			mustB(b, v.SetElevation(0, 2.2))
			if _, _, err := v.Render(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := v.Render(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func figureStationChain(env *core.Environment, lo, hi string) (int, error) {
	tb, err := env.AddTable("Stations")
	if err != nil {
		return 0, err
	}
	rb, err := env.AddBox("restrict", dataflow.Params{"pred": "state = 'LA'"})
	if err != nil {
		return 0, err
	}
	d, err := env.AddBox("setdisplay", dataflow.Params{"name": "display", "spec": "circle r=0.05", "active": "true"})
	if err != nil {
		return 0, err
	}
	loc, err := env.AddBox("setlocation", dataflow.Params{"attrs": "longitude,latitude"})
	if err != nil {
		return 0, err
	}
	sr, err := env.AddBox("setrange", dataflow.Params{"lo": lo, "hi": hi})
	if err != nil {
		return 0, err
	}
	ids := []int{tb.ID, rb.ID, d.ID, loc.ID, sr.ID}
	for i := 0; i+1 < len(ids); i++ {
		if err := env.Program.Connect(ids[i], 0, ids[i+1], 0); err != nil {
			return 0, err
		}
	}
	return sr.ID, nil
}

// BenchmarkIncrementalEdit quantifies principle 2 (incremental
// programming with immediate feedback): after editing one Restrict
// predicate only the affected suffix re-fires, versus a cold rebuild.
func BenchmarkIncrementalEdit(b *testing.B) {
	ctx := context.Background()
	build := func(b *testing.B) (*core.Environment, int, int) {
		env := benchEnv(b)
		tb, _ := env.AddTable("Observations")
		ab, _ := env.AddBox("addattr", dataflow.Params{"name": "t", "def": "(obs_date - date(1985,1,1)) / 30"})
		jb, _ := env.AddTable("Stations")
		jn, _ := env.AddBox("join", dataflow.Params{"pred": "station_id = id"})
		rb, _ := env.AddBox("restrict", dataflow.Params{"pred": "temperature > 10.0"})
		mustB(b, env.Connect(tb.ID, 0, ab.ID, 0))
		mustB(b, env.Connect(ab.ID, 0, jn.ID, 0))
		mustB(b, env.Connect(jb.ID, 0, jn.ID, 1))
		mustB(b, env.Connect(jn.ID, 0, rb.ID, 0))
		return env, rb.ID, rb.ID
	}
	b.Run("EditPredicate", func(b *testing.B) {
		env, editID, demandID := build(b)
		if _, err := env.Eval.Eval(ctx, dataflow.Request{Box: demandID}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pred := fmt.Sprintf("temperature > %d.0", i%20)
			if err := env.Program.SetParams(editID, dataflow.Params{"pred": pred}); err != nil {
				b.Fatal(err)
			}
			if _, err := env.Eval.Eval(ctx, dataflow.Request{Box: demandID}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ColdRebuild", func(b *testing.B) {
		env, editID, demandID := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pred := fmt.Sprintf("temperature > %d.0", i%20)
			if err := env.Program.SetParams(editID, dataflow.Params{"pred": pred}); err != nil {
				b.Fatal(err)
			}
			env.Eval.InvalidateAll()
			if _, err := env.Eval.Eval(ctx, dataflow.Request{Box: demandID}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJoinHashVsNestedLoop compares the strategies behind the Join
// box on the Stations x Observations equi-join.
func BenchmarkJoinHashVsNestedLoop(b *testing.B) {
	for _, n := range []int{50, 200} {
		st := workload.Stations(n, 1)
		obs, err := workload.Observations(st, 24, 2)
		if err != nil {
			b.Fatal(err)
		}
		pred := expr.MustParse("id = station_id")
		b.Run(fmt.Sprintf("Hash/stations=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rel.Join(st, obs, pred, rel.JoinHash, rel.Exec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("NestedLoop/stations=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rel.Join(st, obs, pred, rel.JoinNestedLoop, rel.Exec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexedRestrict compares an indexed equality Restrict against
// a full scan.
func BenchmarkIndexedRestrict(b *testing.B) {
	st := workload.Stations(5000, 1)
	indexed := st.Clone()
	if err := indexed.CreateIndex("state"); err != nil {
		b.Fatal(err)
	}
	pred := expr.MustParse("state = 'LA'")
	b.Run("Scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rel.Restrict(st, pred, rel.Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rel.Restrict(indexed, pred, rel.Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRenderScaling measures rendering throughput against tuple
// count (tuple-wise visualization: the cost is linear in visible tuples).
func BenchmarkRenderScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			st := workload.Stations(n, 1)
			e, err := displayExtended(st)
			if err != nil {
				b.Fatal(err)
			}
			v := viewer.New("v", viewer.DirectSource{D: e}, 640, 480)
			mustB(b, v.PanTo(0, -100, 37))
			mustB(b, v.SetElevation(0, 30)) // continent-wide: everything visible
			if _, _, err := v.Render(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := v.Render(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func displayExtended(st *rel.Relation) (*display.Extended, error) {
	fn, err := draw.ParseSpec("circle r=0.1 color=blue")
	if err != nil {
		return nil, err
	}
	return display.NewExtended("stations", st,
		[]string{"longitude", "latitude"},
		[]display.NamedDisplay{{Name: "display", Fn: fn}})
}

func mustB(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWormholeInteriorCache measures the per-frame wormhole interior
// cache: a canvas full of identical wormholes renders the destination
// once instead of once per wormhole.
func BenchmarkWormholeInteriorCache(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "Cached"
		if disable {
			name = "Uncached"
		}
		b.Run(name, func(b *testing.B) {
			env := benchEnv(b)
			mapCanvas, _, _, err := core.Figure8(env)
			if err != nil {
				b.Fatal(err)
			}
			mv, _ := env.Canvas(mapCanvas)
			mv.DisableWormholeCache = disable
			// Zoom to where many wormholes are visible.
			if _, _, err := mv.Render(); err != nil {
				b.Fatal(err)
			}
			h := mv.Hits()[0]
			row := h.Ext.Rel.Row(h.Row)
			lon, _ := row.Attr("longitude").AsFloat()
			lat, _ := row.Attr("latitude").AsFloat()
			mustB(b, mv.PanTo(0, lon, lat))
			mustB(b, mv.SetElevation(0, 0.45))
			if _, _, err := mv.Render(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := mv.Render(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelDisplayEval measures the parallel display-evaluation
// option on a large visible batch (pure fan-out; painting stays serial).
func BenchmarkParallelDisplayEval(b *testing.B) {
	for _, parallel := range []bool{false, true} {
		name := "Serial"
		if parallel {
			name = "Parallel"
		}
		b.Run(name, func(b *testing.B) {
			st := workload.Stations(30000, 1)
			// An expression-heavy display: computed radius and label.
			fn, err := draw.ParseSpec("circle rexpr='sqrt(altitude + 1.0) / 20' color=blue + label expr='upper(name)' size=0.01")
			if err != nil {
				b.Fatal(err)
			}
			e, err := display.NewExtended("stations", st,
				[]string{"longitude", "latitude"},
				[]display.NamedDisplay{{Name: "display", Fn: fn}})
			if err != nil {
				b.Fatal(err)
			}
			v := viewer.New("v", viewer.DirectSource{D: e}, 640, 480)
			v.Parallel = parallel
			mustB(b, v.PanTo(0, -100, 37))
			mustB(b, v.SetElevation(0, 30))
			if _, _, err := v.Render(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := v.Render(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- query fast path: the columnar kernel vs the interpreter ----------

// queryEngineModes runs fn twice as sub-benchmarks: under the full query
// fast path (the columnar chunk kernel, parallel scans) and under the
// ablated baseline (tree-walking interpreter, serial scans).
func queryEngineModes(b *testing.B, fn func(b *testing.B, x rel.Exec)) {
	b.Run("kernel", func(b *testing.B) { fn(b, rel.Exec{}) })
	b.Run("interpreted", func(b *testing.B) { fn(b, rel.Exec{Path: rel.PathInterp, Workers: 1}) })
}

// benchQueryStations is a Stations relation with the computed attributes
// the query benchmarks lean on: the interpreter re-walks a computed
// definition at every reference, the kernel evaluates each once per
// chunk.
func benchQueryStations(b *testing.B, rows int) *rel.Relation {
	b.Helper()
	st := workload.Stations(rows, benchSeed)
	mustB(b, st.AddComputed("dist2", expr.MustParse(
		"(longitude + 92.0) * (longitude + 92.0) + (latitude - 31.0) * (latitude - 31.0)")))
	mustB(b, st.AddComputed("score", expr.MustParse("dist2 * 0.5 + altitude / 100.0")))
	return st
}

func BenchmarkRestrictKernelVsInterpreted(b *testing.B) {
	st := benchQueryStations(b, 8000)
	pred := expr.MustParse("score > 2.0 and dist2 < 4000.0 and score + dist2 * 0.25 < 9000.0")
	queryEngineModes(b, func(b *testing.B, x rel.Exec) {
		for i := 0; i < b.N; i++ {
			if _, err := rel.Restrict(st, pred, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMapColumnKernelVsInterpreted(b *testing.B) {
	st := benchQueryStations(b, 8000)
	def := expr.MustParse("score * 2.0 + dist2 / 10.0 + altitude")
	queryEngineModes(b, func(b *testing.B, x rel.Exec) {
		for i := 0; i < b.N; i++ {
			if _, err := rel.MapColumn(st, "altitude", def, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJoinKernelVsInterpreted: a join evaluates its residual per
// pair on the interpreter in both legs, so the legs time the same path;
// the benchmark tracks the hash join and its residual.
func BenchmarkJoinKernelVsInterpreted(b *testing.B) {
	st := workload.Stations(8000, benchSeed)
	mustB(b, st.AddComputed("elev_adj", expr.MustParse("altitude / 1000.0 + latitude * 0.1")))
	obsRel, err := workload.Observations(st, 4, 43)
	if err != nil {
		b.Fatal(err)
	}
	mustB(b, obsRel.AddComputed("degf", expr.MustParse("temperature * 1.8 + 32.0")))
	pred := expr.MustParse("id = station_id and degf > 60.0 and degf < 110.0 and precipitation * 25.4 < elev_adj * 100.0 + degf - 30.0")
	queryEngineModes(b, func(b *testing.B, x rel.Exec) {
		for i := 0; i < b.N; i++ {
			if _, err := rel.Join(st, obsRel, pred, rel.JoinHash, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

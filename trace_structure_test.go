package tioga

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/viewer"
)

// These tests pin the causal-tracing acceptance criteria end to end: a
// single Eval+render request's complete span tree — eval waves, box
// firings, fused scans, render phases — must be reconstructible from
// the flight recorder with correct parent links, and the tree's
// *structure* must be identical across the engine ablations (kernel
// vs interpreted, caches on vs off), so a trace diff always means a
// semantic difference, never an instrumentation artifact.

// newTraceEnv builds table -> restrict -> project over a small seeded
// database and attaches a serially-evaluated viewer to the chain tail
// (serial scheduling keeps the span tree deterministic).
func newTraceEnv(t *testing.T, cached bool) (*core.Environment, *viewer.Viewer, int) {
	t.Helper()
	env, err := core.NewSeededEnvironment(60, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := env.AddBox("table", map[string]string{"name": "Stations"})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := env.AddBox("restrict", map[string]string{"pred": "state = 'LA'"})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := env.AddBox("project", map[string]string{"attrs": "id,name,longitude,latitude,state"})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := env.Connect(rb.ID, 0, pb.ID, 0); err != nil {
		t.Fatal(err)
	}
	src := viewer.BoxOutputSource{
		Eval:    env.Eval,
		BoxID:   pb.ID,
		Options: []dataflow.EvalOption{dataflow.Serial()},
	}
	v := viewer.New("golden", src, 160, 120)
	if !cached {
		v.DisableSpatialIndex = true
		v.DisableDisplayMemo = true
		v.DisableWormholeCache = true
	}
	if err := v.PanTo(0, -92, 31); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 60); err != nil {
		t.Fatal(err)
	}
	return env, v, tb.ID
}

// flightOn points the default flight recorder at a clean buffer for one
// test.
func flightOn(t *testing.T) {
	t.Helper()
	prev := obs.SetFlightEnabled(true)
	obs.ResetFlight()
	t.Cleanup(func() {
		obs.ResetFlight()
		obs.SetFlightEnabled(prev)
	})
}

// renderTree renders one frame against a clean flight buffer and
// returns the frame's span tree as its structural fingerprint.
func renderTree(t *testing.T, v *viewer.Viewer) string {
	t.Helper()
	obs.ResetFlight()
	if _, _, err := v.Render(); err != nil {
		t.Fatal(err)
	}
	events := obs.DumpFlight()
	var traceID uint64
	for _, e := range events {
		if e.Name == obs.SpanRenderFrame {
			traceID = e.TraceID
		}
	}
	if traceID == 0 {
		t.Fatal("no render.frame span recorded")
	}
	return obs.FormatSpanTree(obs.BuildSpanTree(events, traceID))
}

func TestGoldenSpanTreeForEvalAndRender(t *testing.T) {
	flightOn(t)
	env, v, tableID := newTraceEnv(t, true)

	// An invalidation sweep records its own span with the swept fan-out.
	env.Eval.InvalidateCtx(context.Background(), tableID)
	invalidations := 0
	for _, e := range obs.DumpFlight() {
		if e.Name == obs.SpanEvalInvalidate {
			invalidations++
			if e.Arg("box") == "" {
				t.Error("eval.invalidate span missing box arg")
			}
		}
	}
	if invalidations != 1 {
		t.Fatalf("recorded %d eval.invalidate spans, want 1", invalidations)
	}

	// The cold frame: demand fires the table and the fused
	// restrict+project chain (one rel scan with its compile pass —
	// present in interpreted mode too), then the three render phases.
	got := renderTree(t, v)
	want := strings.Join([]string{
		"render.frame",
		"  eval.demand",
		"    eval.wave",
		"      eval.fire",
		"    eval.wave",
		"    eval.wave",
		"      eval.fire",
		"        rel.fused_scan",
		"          rel.compile.pass",
		"  render.cull",
		"  render.display_eval",
		"  render.paint",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("cold-frame span tree:\n%s\nwant:\n%s", got, want)
	}

	// A warm frame keeps the same skeleton — the demand still walks its
	// waves — with the firings elided: the absence of fire spans IS the
	// memo hit.
	warm := renderTree(t, v)
	wantWarm := strings.Join([]string{
		"render.frame",
		"  eval.demand",
		"    eval.wave",
		"    eval.wave",
		"    eval.wave",
		"  render.cull",
		"  render.display_eval",
		"  render.paint",
		"",
	}, "\n")
	if warm != wantWarm {
		t.Fatalf("warm-frame span tree:\n%s\nwant:\n%s", warm, wantWarm)
	}
}

// TestTraceStructureIdenticalCompiledVsInterpreted renders the same
// cold request under the kernel and the interpreter and requires
// identical span structure — the ablation must be invisible to a trace
// diff.
func TestTraceStructureIdenticalCompiledVsInterpreted(t *testing.T) {
	flightOn(t)
	env, v, _ := newTraceEnv(t, true)

	env.Eval.InvalidateAll() // viewer setup (PanTo) pre-demands the source
	kernel := renderTree(t, v)

	src := v.Source.(viewer.BoxOutputSource)
	src.Options = append(src.Options, dataflow.WithPath(rel.PathInterp))
	v.Source = src
	env.Eval.InvalidateAll()
	interpreted := renderTree(t, v)

	if kernel != interpreted {
		t.Fatalf("span structure diverges across the evaluator ablation:\nkernel:\n%s\ninterpreted:\n%s", kernel, interpreted)
	}
}

// TestTraceStructureIdenticalCachedVsUncached compares a cold frame
// with render caches enabled against one with every cache disabled:
// same structure, because cache hits annotate spans rather than elide
// them on the cold path.
func TestTraceStructureIdenticalCachedVsUncached(t *testing.T) {
	flightOn(t)
	cachedEnv, cachedV, _ := newTraceEnv(t, true)
	uncachedEnv, uncachedV, _ := newTraceEnv(t, false)

	cachedEnv.Eval.InvalidateAll() // viewer setup (PanTo) pre-demands the source
	uncachedEnv.Eval.InvalidateAll()
	cold := renderTree(t, cachedV)
	uncached := renderTree(t, uncachedV)
	if cold != uncached {
		t.Fatalf("span structure diverges across the cache ablation:\ncached cold:\n%s\nuncached:\n%s", cold, uncached)
	}
}

func TestSlowFrameWatchdog(t *testing.T) {
	flightOn(t)
	prevEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevEnabled)

	_, v, _ := newTraceEnv(t, true)
	v.FrameBudget = time.Nanosecond // every frame is over budget
	before := obs.CounterValue(obs.RenderSlowFrames)
	if _, _, err := v.Render(); err != nil {
		t.Fatal(err)
	}
	if got := obs.CounterValue(obs.RenderSlowFrames) - before; got != 1 {
		t.Fatalf("render.slow_frames rose by %d, want 1", got)
	}
	frames := v.SlowFrames()
	if len(frames) != 1 {
		t.Fatalf("SlowFrames() returned %d entries, want 1", len(frames))
	}
	sf := frames[0]
	if sf.TraceID == 0 || len(sf.Spans) == 0 {
		t.Fatalf("slow frame carries no trace: %+v", sf)
	}
	tree := obs.FormatSpanTree(obs.BuildSpanTree(sf.Spans, sf.TraceID))
	if !strings.Contains(tree, obs.SpanRenderFrame) {
		t.Fatalf("slow-frame span tree missing the frame span:\n%s", tree)
	}

	// The capture ring is bounded: many slow frames keep only the most
	// recent few.
	for i := 0; i < 10; i++ {
		if _, _, err := v.Render(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(v.SlowFrames()); got > 4 {
		t.Fatalf("slow-frame capture unbounded: %d entries", got)
	}
}

package dataflow

import (
	"context"
	"testing"

	"repro/internal/display"
)

// buildPipeline wires table -> restrict -> project and a second
// independent branch table -> sample, returning the graph, evaluator, and
// the boxes.
func buildPipeline(t testing.TB) (*Graph, *Evaluator, map[string]*Box) {
	t.Helper()
	g, ev := newTestGraph(t)
	boxes := map[string]*Box{}
	add := func(name, kind string, p Params) *Box {
		b, err := g.AddBox(kind, p)
		if err != nil {
			t.Fatalf("add %s: %v", kind, err)
		}
		boxes[name] = b
		return b
	}
	add("table", "table", Params{"name": "Stations"})
	add("restrict", "restrict", Params{"pred": "state = 'LA'"})
	add("project", "project", Params{"attrs": "id,name,state"})
	add("table2", "table", Params{"name": "Observations"})
	add("sample", "sample", Params{"p": "0.5", "seed": "7"})
	mustConnect := func(a, b string) {
		t.Helper()
		if err := g.Connect(boxes[a].ID, 0, boxes[b].ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustConnect("table", "restrict")
	mustConnect("restrict", "project")
	mustConnect("table2", "sample")
	return g, ev, boxes
}

func TestLazyDemandTouchesOnlyUpstream(t *testing.T) {
	ctx := context.Background()
	_, ev, boxes := buildPipeline(t)
	if _, err := ev.Eval(ctx, Request{Box: boxes["project"].ID}); err != nil {
		t.Fatal(err)
	}
	// Only the demand's upstream fired — the table plus the fused
	// restrict→project chain; the second branch (table2, sample) is
	// untouched — the paper's lazy evaluation.
	if ev.Stats.Fires != 2 {
		t.Fatalf("fired %d boxes, want 2 (table + fused chain)", ev.Stats.Fires)
	}
}

func TestMemoizationAcrossDemands(t *testing.T) {
	ctx := context.Background()
	_, ev, boxes := buildPipeline(t)
	if _, err := ev.Eval(ctx, Request{Box: boxes["project"].ID}); err != nil {
		t.Fatal(err)
	}
	fires := ev.Stats.Fires
	// A second demand re-fires nothing.
	if _, err := ev.Eval(ctx, Request{Box: boxes["project"].ID}); err != nil {
		t.Fatal(err)
	}
	if ev.Stats.Fires != fires {
		t.Fatalf("clean re-demand fired %d boxes", ev.Stats.Fires-fires)
	}
}

func TestIncrementalEditRefiresOnlySuffix(t *testing.T) {
	ctx := context.Background()
	g, ev, boxes := buildPipeline(t)
	if _, err := ev.Eval(ctx, Request{Box: boxes["project"].ID}); err != nil {
		t.Fatal(err)
	}
	base := ev.Stats.Fires

	// Editing the restrict predicate re-fires the fused restrict→project
	// chain (one firing), not the table.
	if err := g.SetParams(boxes["restrict"].ID, Params{"pred": "state = 'TX'"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(ctx, Request{Box: boxes["project"].ID}); err != nil {
		t.Fatal(err)
	}
	if got := ev.Stats.Fires - base; got != 1 {
		t.Fatalf("incremental edit re-fired %d boxes, want 1 (fused chain)", got)
	}
}

func TestTouchInvalidates(t *testing.T) {
	ctx := context.Background()
	g, ev, boxes := buildPipeline(t)
	if _, err := ev.Eval(ctx, Request{Box: boxes["project"].ID}); err != nil {
		t.Fatal(err)
	}
	base := ev.Stats.Fires
	g.Touch(boxes["table"].ID)
	if _, err := ev.Eval(ctx, Request{Box: boxes["project"].ID}); err != nil {
		t.Fatal(err)
	}
	if got := ev.Stats.Fires - base; got != 2 {
		t.Fatalf("touch re-fired %d boxes, want all (table + fused chain)", got)
	}
}

func TestDemandInputPromotes(t *testing.T) {
	ctx := context.Background()
	g, ev, boxes := buildPipeline(t)
	vb, _ := g.AddBox("viewer", nil)
	if err := g.Connect(boxes["project"].ID, 0, vb.ID, 0); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(ctx, Request{Box: vb.ID, Input: true})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Value
	// The viewer port is G: the R output arrives as a promoted group.
	if _, ok := v.(*display.Group); !ok {
		t.Fatalf("viewer input is %T, want group", v)
	}
	if _, err := ev.Eval(ctx, Request{Box: vb.ID, Port: 5, Input: true}); err == nil {
		t.Error("bad port accepted")
	}
	if _, err := ev.Eval(ctx, Request{Box: boxes["table"].ID, Input: true}); err == nil {
		t.Error("demanding unconnected input accepted")
	}
}

func TestDanglingInputError(t *testing.T) {
	ctx := context.Background()
	g, ev := newTestGraph(t)
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	if _, err := ev.Eval(ctx, Request{Box: rb.ID}); err == nil {
		t.Error("demand with dangling input accepted")
	}
}

func TestEvaluateAllEager(t *testing.T) {
	_, ev, _ := buildPipeline(t)
	if err := ev.EvaluateAll(); err != nil {
		t.Fatal(err)
	}
	// Everything fired, including the branch no viewer demanded.
	if ev.Stats.Fires != 5 {
		t.Fatalf("eager fired %d boxes, want 5", ev.Stats.Fires)
	}
}

func TestMultiOutputSwitch(t *testing.T) {
	ctx := context.Background()
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	sw, _ := g.AddBox("switch", Params{"pred": "state = 'LA'"})
	if err := g.Connect(tb.ID, 0, sw.ID, 0); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(ctx, Request{Box: sw.ID})
	if err != nil {
		t.Fatal(err)
	}
	yes := res.Value
	res, err = ev.Eval(ctx, Request{Box: sw.ID, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	no := res.Value
	ny, nn := extLen(t, yes), extLen(t, no)
	res, _ = ev.Eval(ctx, Request{Box: tb.ID})
	all := res.Value
	if ny+nn != extLen(t, all) {
		t.Fatalf("switch lost tuples: %d + %d != %d", ny, nn, extLen(t, all))
	}
	if ny == 0 || nn == 0 {
		t.Fatal("switch routed everything one way")
	}
	// Both outputs came from one firing.
	if ev.Stats.Fires != 2 { // table + switch
		t.Fatalf("fired %d, want 2", ev.Stats.Fires)
	}
}

func TestPartitionBox(t *testing.T) {
	ctx := context.Background()
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	pt, _ := g.AddBox("partition", Params{"preds": "state = 'LA'; state = 'TX'; true"})
	if len(pt.Out) != 3 {
		t.Fatalf("partition has %d outputs", len(pt.Out))
	}
	if err := g.Connect(tb.ID, 0, pt.ID, 0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 3; i++ {
		res, err := ev.Eval(ctx, Request{Box: pt.ID, Port: i})
		if err != nil {
			t.Fatal(err)
		}
		v := res.Value
		total += extLen(t, v)
	}
	res, _ := ev.Eval(ctx, Request{Box: tb.ID})
	all := res.Value
	if total != extLen(t, all) {
		t.Fatalf("partition total %d != %d", total, extLen(t, all))
	}
}

func TestTypecheckLoadedProgram(t *testing.T) {
	g, _, _ := buildPipelineForTypecheck(t)
	if errs := Typecheck(g); len(errs) != 0 {
		t.Fatalf("clean graph reported %v", errs)
	}
}

func buildPipelineForTypecheck(t testing.TB) (*Graph, *Evaluator, map[string]*Box) {
	return buildPipeline(t.(*testing.T))
}

func TestCycleDetectionAtEval(t *testing.T) {
	ctx := context.Background()
	// Graph-level connect prevents cycles; simulate a corrupt load by
	// wiring edges directly.
	g, ev := newTestGraph(t)
	a, _ := g.AddBox("restrict", Params{"pred": "true"})
	b, _ := g.AddBox("restrict", Params{"pred": "true"})
	g.edges[a.ID] = map[int]Edge{0: {From: b.ID, FromPort: 0, To: a.ID, ToPort: 0}}
	g.edges[b.ID] = map[int]Edge{0: {From: a.ID, FromPort: 0, To: b.ID, ToPort: 0}}
	if _, err := ev.Eval(ctx, Request{Box: a.ID}); err == nil {
		t.Error("cyclic evaluation accepted")
	}
}

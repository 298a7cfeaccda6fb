package dataflow

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/workload"
)

// TestEvalStatsMirrorObsCounters checks that the per-evaluator EvalStats
// struct and the process-wide obs counters tell the same story: fires,
// cache hits, and cache misses advance in lockstep.
func TestEvalStatsMirrorObsCounters(t *testing.T) {
	ctx := context.Background()
	obs.Reset()
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()

	ev, ids := chainGraph(t, 4)
	before := obs.TakeSnapshot()

	sink := ids[len(ids)-1]
	if _, err := ev.Eval(ctx, Request{Box: sink}); err != nil {
		t.Fatal(err)
	}
	// A clean re-demand is answered from the memo table.
	if _, err := ev.Eval(ctx, Request{Box: sink}); err != nil {
		t.Fatal(err)
	}
	delta := obs.CounterDelta(before, obs.TakeSnapshot())

	if delta[obs.EvalFires] != int64(ev.Stats.Fires) {
		t.Fatalf("obs fires %d != EvalStats.Fires %d", delta[obs.EvalFires], ev.Stats.Fires)
	}
	if delta[obs.EvalCacheHits] != int64(ev.Stats.CacheHits) {
		t.Fatalf("obs cache hits %d != EvalStats.CacheHits %d", delta[obs.EvalCacheHits], ev.Stats.CacheHits)
	}
	if delta[obs.EvalCacheMiss] != int64(ev.Stats.CacheMiss) {
		t.Fatalf("obs cache miss %d != EvalStats.CacheMiss %d", delta[obs.EvalCacheMiss], ev.Stats.CacheMiss)
	}
	if delta[obs.EvalDemands] != 2 {
		t.Fatalf("eval.demands = %d, want 2", delta[obs.EvalDemands])
	}
	if ev.Stats.CacheHits == 0 {
		t.Fatal("re-demand did not hit the memo table")
	}
	snap := obs.TakeSnapshot()
	if h := snap.Histograms[obs.EvalDemandNS]; h.Count != 2 {
		t.Fatalf("demand latency histogram count = %d, want 2", h.Count)
	}
	if h := snap.Histograms[obs.EvalFireNS]; h.Count != int64(ev.Stats.Fires) {
		t.Fatalf("fire latency histogram count = %d, want %d", h.Count, ev.Stats.Fires)
	}
}

// TestEvalTracingEmitsFireSpans demands a chain under an active trace
// and checks per-box firing spans carry box ids and kinds.
func TestEvalTracingEmitsFireSpans(t *testing.T) {
	ctx := context.Background()
	obs.Reset()
	obs.SetEnabled(true)
	obs.StartTracing()
	defer func() {
		obs.StopTracing()
		obs.SetEnabled(false)
		obs.Reset()
	}()

	ev, ids := chainGraph(t, 3)
	if _, err := ev.Eval(ctx, Request{Box: ids[len(ids)-1]}); err != nil {
		t.Fatal(err)
	}
	obs.StopTracing()
	var sb strings.Builder
	if err := obs.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "eval.demand") {
		t.Fatalf("trace missing eval.demand span:\n%s", out)
	}
	if !strings.Contains(out, "eval.fire") || !strings.Contains(out, `"kind"`) {
		t.Fatalf("trace missing annotated eval.fire spans:\n%s", out)
	}
}

// chainGraph builds table -> n restrict boxes so demanding the sink
// fires a known chain of n+1 boxes with deterministic counts.
func chainGraph(t *testing.T, n int) (*Evaluator, []int) {
	t.Helper()
	g, ev := newTestGraph(t)
	tb, err := g.AddBox("table", Params{"name": "Stations"})
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{tb.ID}
	prev := tb.ID
	for i := 0; i < n; i++ {
		b, err := g.AddBox("restrict", Params{"pred": "true"})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(prev, 0, b.ID, 0); err != nil {
			t.Fatal(err)
		}
		prev = b.ID
		ids = append(ids, b.ID)
	}
	return ev, ids
}

// scanChain builds table → restrict → project → restrict over rows
// Stations, large enough for chunk kernels and parallel scans, and
// returns its evaluator and chain tail.
func scanChain(t *testing.T, rows int) (*Evaluator, int) {
	t.Helper()
	g := NewGraph(NewRegistry())
	ev := NewEvaluator(g, memSource{"Stations": workload.Stations(rows, 1)})
	prev := -1
	for _, b := range []struct {
		kind string
		p    Params
	}{
		{"table", Params{"name": "Stations"}},
		{"restrict", Params{"pred": "longitude < -80.0"}},
		{"project", Params{"attrs": "id,name,latitude"}},
		{"restrict", Params{"pred": "latitude > 30.0"}},
	} {
		box, err := g.AddBox(b.kind, b.p)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 {
			if err := g.Connect(prev, 0, box.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
		prev = box.ID
	}
	return ev, prev
}

// coldRun evaluates target cold under opts and returns its output's
// fingerprint and the obs counters the request advanced.
func coldRun(t *testing.T, ev *Evaluator, target int, opts ...EvalOption) (string, map[string]int64) {
	t.Helper()
	ev.InvalidateAll()
	before := obs.TakeSnapshot()
	res, err := ev.Eval(context.Background(), Request{Box: target}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprintR(t, res.Value), obs.CounterDelta(before, obs.TakeSnapshot())
}

// WithPath is per request: on one evaluator an interpreter request
// compiles nothing and runs no chunk kernel, while a default request over
// the same program runs the kernel — fused or not, with identical output.
func TestWithPathIsPerRequest(t *testing.T) {
	obs.Reset()
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()
	ev, target := scanChain(t, 2*rel.DefaultChunkRows)
	for _, fusion := range [][]EvalOption{nil, {WithoutFusion()}} {
		interpFP, interp := coldRun(t, ev, target, append(fusion, WithPath(rel.PathInterp))...)
		if interp[obs.RelKernelScans] != 0 || interp[obs.RelCompile] != 0 {
			t.Errorf("fusion off=%v: interpreter request ran %d kernel scans, %d compiles",
				len(fusion) > 0, interp[obs.RelKernelScans], interp[obs.RelCompile])
		}
		autoFP, auto := coldRun(t, ev, target, fusion...)
		if auto[obs.RelKernelScans] == 0 {
			t.Errorf("fusion off=%v: default request ran no kernel scan", len(fusion) > 0)
		}
		if autoFP != interpFP {
			t.Errorf("fusion off=%v: interpreter and default outputs differ", len(fusion) > 0)
		}
	}
}

// A request's worker bound is also its scans' chunk-worker bound, for
// fused and unfused scans alike: WithWorkers(4) splits the source's four
// chunks four ways, Serial scans in one.
func TestScanWorkersFollowRequest(t *testing.T) {
	obs.Reset()
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()
	ev, target := scanChain(t, 4*rel.DefaultChunkRows)
	for _, fusion := range [][]EvalOption{nil, {WithoutFusion()}} {
		_, par := coldRun(t, ev, target, append(fusion, WithWorkers(4))...)
		if got := par[obs.RelScanChunks]; got < 4 {
			t.Errorf("fusion off=%v: WithWorkers(4) split scans into %d chunks, want at least 4", len(fusion) > 0, got)
		}
		_, serial := coldRun(t, ev, target, append(fusion, Serial())...)
		if got := serial[obs.RelScanChunks]; got != 0 {
			t.Errorf("fusion off=%v: Serial request split scans into %d chunks", len(fusion) > 0, got)
		}
	}
}

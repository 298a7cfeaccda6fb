package main

import (
	"bytes"
	"context"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/raster"
	"repro/internal/viewer"
)

// Span names of the traced run, one per layer boundary the benchmark
// wraps from its own code (no spans inside the program).
const (
	spanOp         = "op"               // one op end to end
	spanSetParams  = "core.set_params"  // Environment.SetParams
	spanEval       = "dataflow.eval"    // Evaluator.Eval of the canvas root
	spanRender     = "viewer.render"    // Viewer.RenderIntoCtx
	spanEncode     = "raster.encode"    // Image.WritePNG
	spanWrite      = "db.write"         // Database.UpdateTuple / AppendTuple
	spanSnapshot   = "db.snapshot"      // Database.Snapshot
	spanEnqueue    = "dataflow.enqueue" // Evaluator.EnqueueTableDelta
	spanApply      = "server.apply"     // Session.ApplyEvents
	spanClientOp   = "client.op"        // send until the op's PNG is received
	spanClientMeta = "client.meta"      // send until the op's frame meta is received
	spanClientPNG  = "client.png"       // meta until PNG received
)

// tracedFrame evaluates the canvas root, renders and encodes one frame,
// recording a span per layer under parent. Evaluating before the render
// keeps evaluation time out of render time: the render's own demand is
// then a memo hit.
func tracedFrame(ctx context.Context, rec *recorder, op, parent int, ev *dataflow.Evaluator, req dataflow.Request, v *viewer.Viewer) ([]byte, error) {
	t0 := time.Now()
	if _, err := ev.Eval(ctx, req); err != nil {
		return nil, err
	}
	t1 := time.Now()
	rec.add(spanEval, op, parent, t0, t1)
	img := raster.NewImage(v.W, v.H)
	if _, err := v.RenderIntoCtx(ctx, img); err != nil {
		return nil, err
	}
	t2 := time.Now()
	rec.add(spanRender, op, parent, t1, t2)
	var buf bytes.Buffer
	if err := img.WritePNG(&buf); err != nil {
		return nil, err
	}
	rec.add(spanEncode, op, parent, t2, time.Now())
	return buf.Bytes(), nil
}

// counting runs fn with obs counters on and returns the counter deltas
// it caused. The flight recorder stays off: the benchmark keeps its own
// spans.
func counting(fn func() error) (map[string]int64, error) {
	obs.Reset()
	obs.SetEnabled(true)
	before := obs.TakeSnapshot()
	err := fn()
	delta := obs.CounterDelta(before, obs.TakeSnapshot())
	obs.SetEnabled(false)
	obs.Reset()
	return delta, err
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// zeroLayers sets every per-layer metric to 0, the value for a layer
// that does no such work on the workload; callers overwrite the ones
// they measure.
func zeroLayers(out *outcome) {
	for _, s := range perLayer {
		out.metrics[s.Name] = 0
	}
}

// layerMetrics fills the dataflow, rel, viewer and raster metrics from a
// traced pass: span durations from rec, counts from the obs counter
// deltas c, normalized per op and per rendered frame.
func layerMetrics(out *outcome, rec *recorder, c map[string]int64, ops, frames int, pngSizes []float64) {
	m := out.metrics
	n := int64(ops)
	eval := rec.durations(spanEval)
	m["dataflow.eval_ms_p50"] = median(eval)
	m["dataflow.eval_ms_p99"] = quantile(eval, tailQuantile(len(eval)))
	m["dataflow.fires_per_op"] = ratio(c[obs.EvalFires], n)
	m["dataflow.memo_hit_ratio"] = ratio(c[obs.EvalCacheHits], c[obs.EvalCacheHits]+c[obs.EvalCacheMiss])
	m["dataflow.delta_applied_per_op"] = ratio(c[obs.EvalDeltaApplied], n)

	m["rel.rows_scanned_per_op"] = ratio(c[obs.RelRestrictRowsIn], n)
	m["rel.selectivity"] = ratio(c[obs.RelRestrictRowsOut], c[obs.RelRestrictRowsIn])
	m["rel.kernel_scan_ratio"] = ratio(c[obs.RelKernelScans], c[obs.RelRestrictScans]+c[obs.RelFusedScans])
	m["rel.join_rows_out_per_op"] = ratio(c[obs.RelJoinRowsOut], n)
	m["rel.compiles_per_op"] = ratio(c[obs.RelCompile], n)

	render := rec.durations(spanRender)
	m["viewer.render_ms_p50"] = median(render)
	m["viewer.render_ms_p99"] = quantile(render, tailQuantile(len(render)))
	f := c[obs.RenderFrames]
	m["viewer.tuples_seen_per_frame"] = ratio(c[obs.RenderTuplesSeen], f)
	m["viewer.cull_ratio"] = ratio(c[obs.RenderTuplesCulled], c[obs.RenderTuplesSeen])
	m["viewer.display_memo_hit_ratio"] = ratio(c[obs.RenderMemoHits], c[obs.RenderMemoHits]+c[obs.RenderMemoMisses])
	m["viewer.drawables_drawn_per_frame"] = ratio(c[obs.RenderDrawablesDrawn], f)

	enc := rec.durations(spanEncode)
	m["raster.encode_ms_p50"] = median(enc)
	m["raster.encode_ms_p99"] = quantile(enc, tailQuantile(len(enc)))
	m["raster.png_bytes_p50"] = median(pngSizes)

	out.report["replay_ops"] = ops
	out.report["replay_frames"] = frames
	out.report["replay_counters"] = c
}

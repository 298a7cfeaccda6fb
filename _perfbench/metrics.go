package main

import (
	"encoding/json"
	"io"
	"time"
)

// metricSpec declares one reported metric. Bound applies to end-to-end
// metrics only: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, reported by every
// workload with tracing off. See README.md for the definitions.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"wire_kb_per_op", "KB", "lower", 0.25},
	{"freshness_p50_ms", "ms", "lower", 0.25},
	{"freshness_p99_ms", "ms", "lower", 0.25},
	{"heap_peak_mb", "MB", "lower", 0.25},
}

// reported are printed beside the end-to-end metrics but left out of the
// result line and so not gated: at this commit op_fail_ratio is 0 on
// every workload and ops_within_budget_frac is near 0 on live, where a
// bound relative to the median means nothing. Failures still show: a
// failed op enters the latency metrics at the watchdog time, and the
// result line's failed count carries them.
var reported = []metricSpec{
	{"op_fail_ratio", "ratio", "lower", 0},
	{"ops_within_budget_frac", "ratio", "higher", 0},
}

// perLayer is the traced run's breakdown. A value of 0 means the layer
// does no such work on that workload (for example core.set_params_ms_p50
// outside explore); README.md lists which workload each is meant for.
var perLayer = []metricSpec{
	{"server.frames_per_op", "count", "lower", 0},
	{"server.broadcasts_per_write", "count", "lower", 0},
	{"server.frame_bytes_p50", "bytes", "lower", 0},
	{"server.render_ms_p50", "ms", "lower", 0},
	{"server.rtt_gap_ms_p50", "ms", "lower", 0},
	{"server.apply_ms_p50", "ms", "lower", 0},
	{"db.write_ms_p50", "ms", "lower", 0},
	{"db.write_ms_p99", "ms", "lower", 0},
	{"db.snapshot_ms_p50", "ms", "lower", 0},
	{"core.set_params_ms_p50", "ms", "lower", 0},
	{"dataflow.eval_ms_p50", "ms", "lower", 0},
	{"dataflow.eval_ms_p99", "ms", "lower", 0},
	{"dataflow.fires_per_op", "count", "lower", 0},
	{"dataflow.memo_hit_ratio", "ratio", "higher", 0},
	{"dataflow.delta_applied_per_op", "count", "higher", 0},
	{"rel.rows_scanned_per_op", "count", "lower", 0},
	{"rel.selectivity", "ratio", "lower", 0},
	{"rel.kernel_scan_ratio", "ratio", "higher", 0},
	{"rel.join_rows_out_per_op", "count", "lower", 0},
	{"rel.compiles_per_op", "count", "lower", 0},
	{"rel.proc_scaling", "ratio", "higher", 0},
	{"viewer.render_ms_p50", "ms", "lower", 0},
	{"viewer.render_ms_p99", "ms", "lower", 0},
	{"viewer.tuples_seen_per_frame", "count", "lower", 0},
	{"viewer.cull_ratio", "ratio", "higher", 0},
	{"viewer.display_memo_hit_ratio", "ratio", "higher", 0},
	{"viewer.drawables_drawn_per_frame", "count", "lower", 0},
	{"raster.encode_ms_p50", "ms", "lower", 0},
	{"raster.encode_ms_p99", "ms", "lower", 0},
	{"raster.png_bytes_p50", "bytes", "lower", 0},
	{"bench.writer_lag_p99_ms", "ms", "lower", 0},
	{"bench.unattributed_frac", "ratio", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

// budget is the interactive latency budget per op.
const budget = 100 * time.Millisecond

// Tail percentiles of the gated latency metrics, fixed per workload so
// that a run at the baseline rate has at least twenty samples beyond
// them (ten define a percentile; twenty keep it steady between runs).
// They are constants, not chosen per run from the sample count: a
// change that slowed ops would otherwise lower the percentile and read
// as a better tail.
const (
	browseTail    = 0.99 // ~2900 ops in 30 s
	liveTail      = 0.90 // ~280 ops in 30 s
	exploreTail   = 0.95 // ~470 ops in 30 s
	freshnessTail = 0.99 // live: ~3000 write-frame pairs in 30 s
)

// fillOpMetrics sets the op latency, throughput and budget metrics from
// per-op latencies in ms (failed ops already entered as misses), with q
// the workload's tail percentile.
func fillOpMetrics(out *outcome, lat []float64, elapsed time.Duration, q float64) {
	out.metrics["op_p50_ms"] = median(lat)
	out.metrics["op_p99_ms"] = quantile(lat, q)
	out.metrics["ops_per_s"] = float64(out.attempted-out.failed) / elapsed.Seconds()
	within := 0
	for _, l := range lat {
		if l <= ms(budget) {
			within++
		}
	}
	out.metrics["ops_within_budget_frac"] = ratio(int64(within), int64(out.attempted))
	out.metrics["op_fail_ratio"] = ratio(int64(out.failed), int64(out.attempted))
	out.report["op_samples"] = len(lat)
	out.report["op_p99_ms_is_percentile"] = q * 100
	out.report["op_samples_beyond_tail"] = int(float64(len(lat)) * (1 - q))
}

// runSeconds is the measurement window BENCHMARK.json sets for each
// run.
const runSeconds = 30

// writeManifest prints BENCHMARK.json from the workload and metric
// tables, so the file and the program cannot drift apart.
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "_perfbench/run.sh"},
		Paths:      []string{"_perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, s := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

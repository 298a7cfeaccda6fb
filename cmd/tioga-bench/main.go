// Command tioga-bench is the engine's ablation harness. Each entry of
// its comparison table times one workload on a baseline path and on
// the fast path that baseline ablates (serial vs parallel scheduling,
// uncached vs cached rendering, interpreted vs kernel+fused queries,
// full refire vs delta maintenance, interpreted vs kernel scans), after
// checking that both paths produce identical output. The run writes one
// JSON report, BENCH_ablation.json, whose speedups and identity flags
// the -compare mode gates in CI.
//
// End-to-end latency of the interactive system is measured by the
// separate _perfbench module; this harness keeps per-operator paths
// honest as differential oracles and ablation ratios.
//
// Usage:
//
//	tioga-bench [-quick] [-v] [-benchtime 1s] [-o BENCH_ablation.json]
//	tioga-bench -compare [-threshold 0.15] old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

func main() {
	out := flag.String("o", "BENCH_ablation.json", "output JSON file")
	benchtime := flag.Duration("benchtime", time.Second, "target time per timed pass")
	quick := flag.Bool("quick", false, "CI smoke mode: small datasets and short benchtime")
	verbose := flag.Bool("v", false, "print results as they complete")
	compare := flag.Bool("compare", false, "compare two bench reports (args: old.json new.json) and fail on regressions")
	threshold := flag.Float64("threshold", 0.15, "relative regression tolerance for -compare (0.15 = 15%)")
	telemetry := flag.String("telemetry", "", "serve /snapshot, /metrics, /trace, and pprof on this address while benchmarks run")
	testing.Init() // registers test.benchtime, which testing.Benchmark reads
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "tioga-bench: -compare needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		regs, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tioga-bench:", err)
			os.Exit(1)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "tioga-bench: %d regression(s) vs %s:\n", len(regs), flag.Arg(0))
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r.String())
			}
			os.Exit(1)
		}
		fmt.Printf("no regressions: %s vs %s (threshold %.0f%%)\n", flag.Arg(1), flag.Arg(0), 100**threshold)
		return
	}

	if *quick && *benchtime == time.Second {
		*benchtime = 50 * time.Millisecond
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "tioga-bench:", err)
		os.Exit(1)
	}
	if *telemetry != "" {
		obs.SetEnabled(true) // timedSection still turns recorders off inside timed passes
		srv, terr := export.Start(*telemetry)
		if terr != nil {
			fmt.Fprintln(os.Stderr, "tioga-bench:", terr)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry -> http://%s/\n", srv.Addr)
	}

	if err := runAblations(*out, *quick, *verbose); err != nil {
		// Dump the flight recorder next to the report, so a CI failure
		// ships the causal trace of what the bench was doing.
		fmt.Fprintln(os.Stderr, "tioga-bench:", err)
		if events := obs.DumpFlight(); len(events) > 0 {
			if werr := obs.WriteFlightFile("flight_trace.json", events); werr == nil {
				fmt.Fprintln(os.Stderr, "flight recorder -> flight_trace.json")
			}
		}
		os.Exit(1)
	}
}

// params are a comparison's workload sizes, recorded in the report.
type params map[string]int

// comparison is one row of the ablation table: a workload timed on a
// baseline path and on the fast path it ablates.
type comparison struct {
	name     string
	workload string
	quick    params
	full     params
	// floor, when positive, is the least speedup a full-mode run accepts.
	floor float64
	setup func(p params) (*ablation, error)
}

// ablation is a comparison's prepared workload.
type ablation struct {
	baseline, fast leg
	// fingerprint renders one op's output canonically; the legs must
	// agree on it.
	fingerprint func(out any) (string, error)
	// checkOps is how many lockstep ops the identity pass compares
	// (at least one): every frame of a script, every batch of a stream.
	checkOps int
	// iterations fixes b.N (0 calibrates to -benchtime). testing.Benchmark
	// sizes b.N from timed time alone, so a leg whose untimed prepare
	// dwarfs its op would otherwise run for minutes.
	iterations int
	// check, when set, runs after timing with the baseline's last
	// fingerprint; it may add sections to the result or fail the run.
	check func(r *result, baseFP string) error
	// release, when set, frees what setup acquired.
	release func()
}

// leg is one side of an ablation.
type leg struct {
	mode string
	// prepare, when set, runs untimed before every op.
	prepare func() error
	op      func() (any, error)
}

// run plays one op, preceded by its untimed prepare.
func (l leg) run() (any, error) {
	if l.prepare != nil {
		if err := l.prepare(); err != nil {
			return nil, err
		}
	}
	return l.op()
}

// report is the schema of BENCH_ablation.json.
type report struct {
	GeneratedBy string   `json:"generated_by"`
	Meta        runMeta  `json:"meta"`
	Comparisons []result `json:"comparisons"`
}

// result is one comparison's entry in the report. OutputsIdentical is
// true in every written report, since a run whose legs disagree fails
// before writing; it stays as the key the -compare gate holds to true.
type result struct {
	Name             string         `json:"name"`
	Workload         string         `json:"workload"`
	Params           params         `json:"params"`
	Baseline         legResult      `json:"baseline"`
	Fast             legResult      `json:"fast"`
	Speedup          float64        `json:"speedup"`
	OutputsIdentical bool           `json:"outputs_identical"`
	BoundedMemory    *boundedMemory `json:"bounded_memory,omitempty"`
}

// legResult is one leg's median ns per op and, for the fast leg, the
// obs counter deltas of one instrumented op.
type legResult struct {
	Mode     string           `json:"mode"`
	NsPerOp  int64            `json:"ns_per_op"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// runAblations runs every comparison in table order and writes the
// report. Any failed oracle or acceptance check fails the run.
func runAblations(out string, quick, verbose bool) error {
	rep := report{GeneratedBy: "tioga-bench", Meta: collectMeta()}
	for _, c := range comparisons {
		r, err := runComparison(c, quick, verbose)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		rep.Comparisons = append(rep.Comparisons, *r)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d comparisons)\n", out, len(rep.Comparisons))
	return nil
}

// runComparison checks output identity, takes one counter pass on the
// fast leg, then times both legs, each as the median of three
// independently calibrated testing.Benchmark passes, interleaved so
// drift in the host's speed hits both legs alike.
func runComparison(c comparison, quick, verbose bool) (*result, error) {
	p := c.full
	if quick {
		p = c.quick
	}
	a, err := c.setup(p)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if a.release != nil {
		defer a.release()
	}

	// Output identity before any timing: a speedup is vacuous if the
	// paths disagree.
	var baseFP string
	for i := 0; i < max(a.checkOps, 1); i++ {
		var fps [2]string
		for j, l := range []leg{a.baseline, a.fast} {
			v, err := l.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", l.mode, err)
			}
			if fps[j], err = a.fingerprint(v); err != nil {
				return nil, fmt.Errorf("%s: %w", l.mode, err)
			}
		}
		if fps[0] != fps[1] {
			return nil, fmt.Errorf("%s and %s outputs differ at check op %d", a.baseline.mode, a.fast.mode, i)
		}
		baseFP = fps[0]
	}

	counters, err := countOp(a.fast)
	if err != nil {
		return nil, fmt.Errorf("%s: instrumented op: %w", a.fast.mode, err)
	}

	if a.iterations > 0 {
		prev := flag.Lookup("test.benchtime").Value.String()
		if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", a.iterations)); err != nil {
			return nil, err
		}
		// prev parsed once already, so restoring it cannot fail.
		defer func() { _ = flag.Set("test.benchtime", prev) }()
	}
	var samples [2][]int64
	for pass := 0; pass < 3; pass++ {
		for j, l := range []leg{a.baseline, a.fast} {
			ns, err := timeLeg(l)
			if err != nil {
				return nil, fmt.Errorf("%s: timed pass: %w", l.mode, err)
			}
			samples[j] = append(samples[j], ns)
		}
	}
	baseNs, fastNs := median(samples[0]), median(samples[1])

	r := &result{
		Name:             c.name,
		Workload:         c.workload,
		Params:           p,
		Baseline:         legResult{Mode: a.baseline.mode, NsPerOp: baseNs},
		Fast:             legResult{Mode: a.fast.mode, NsPerOp: fastNs, Counters: counters},
		Speedup:          float64(baseNs) / float64(fastNs),
		OutputsIdentical: true,
	}
	if verbose {
		fmt.Printf("%-34s %12d ns/op (%s)\n", c.name, baseNs, a.baseline.mode)
		fmt.Printf("%-34s %12d ns/op (%s)  %.2fx\n", "", fastNs, a.fast.mode, r.Speedup)
	}
	if a.check != nil {
		if err := a.check(r, baseFP); err != nil {
			return nil, err
		}
	}
	if !quick && c.floor > 0 && r.Speedup < c.floor {
		return nil, fmt.Errorf("speedup %.2fx below the %.1fx acceptance floor", r.Speedup, c.floor)
	}
	return r, nil
}

// countOp runs one op of l with obs on against a clean registry and
// returns the counters it moved.
func countOp(l leg) (map[string]int64, error) {
	if l.prepare != nil {
		if err := l.prepare(); err != nil {
			return nil, err
		}
	}
	obs.Reset()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(prev)
		obs.Reset()
	}()
	before := obs.TakeSnapshot()
	if _, err := l.op(); err != nil {
		return nil, err
	}
	return obs.CounterDelta(before, obs.TakeSnapshot()), nil
}

// timeLeg is one testing.Benchmark pass over l's op, with prepare
// outside the timer.
func timeLeg(l leg) (int64, error) {
	var opErr error
	var r testing.BenchmarkResult
	timedSection(func() {
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if l.prepare != nil {
					b.StopTimer()
					opErr = l.prepare()
					b.StartTimer()
				}
				if opErr == nil {
					_, opErr = l.op()
				}
				if opErr != nil {
					b.FailNow()
				}
			}
		})
	})
	return r.NsPerOp(), opErr
}

func median(ns []int64) int64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// timedSection runs fn with the flight recorder off as well as the obs
// registry, so timed passes measure the true production configuration,
// then restores the recorder for the surrounding instrumented passes.
func timedSection(fn func()) {
	prevObs := obs.Enabled()
	obs.SetEnabled(false)
	prevFlight := obs.SetFlightEnabled(false)
	defer func() {
		obs.SetFlightEnabled(prevFlight)
		obs.SetEnabled(prevObs)
	}()
	fn()
}

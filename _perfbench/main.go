// Command perfbench is the repository's end-to-end benchmark. It runs
// one interaction workload against the Tioga-2 engine for a fixed time,
// checks the outputs against in-process reference renders, and prints
// one JSON result line. With -trace 0 the result holds the end-to-end
// metrics (tracing and the flight recorder off, the production
// configuration); with -trace 1 it holds the per-layer breakdown from a
// traced run. -manifest prints the BENCHMARK.json that describes the
// workloads and metrics, generated from the tables in metrics.go.
//
//	go build -o perfbench . && ./perfbench -workload browse -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// config is one invocation's settings.
type config struct {
	seed     int64
	duration time.Duration
	trace    bool
	spansOut string // Chrome trace file written at the end of a traced run
}

// outcome is what a workload run hands back: its metrics plus the
// oracle verdict and the op accounting of the result line.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	// report carries extra detail for the human-readable lines: sample
	// counts, the tail percentile used, oracle notes.
	report map[string]any
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]float64{}, report: map[string]any{}}
}

// fail marks the run incorrect and records why.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	msgs, _ := o.report["oracle_failures"].([]string)
	if len(msgs) < 10 {
		o.report["oracle_failures"] = append(msgs, fmt.Sprintf(format, args...))
	}
}

// setupRepeats is how many times a timed run sets up; setup_s is the
// median.
const setupRepeats = 5

type workload struct {
	name string
	why  string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"browse", "two WebSocket clients pan, zoom and revisit a 20k-station canvas with no writes; time goes to viewer and raster while the evaluator answers from memo", runBrowse},
	{"live", "the browse clients plus an open-loop writer at 50 writes/s; loads db writes, the event pump, delta apply and push fan-out beside reads", runLive},
	{"explore", "in-process predicate edits on a Restrict over 40k Stations hash-joined to Observations; cold dataflow, rel and expr work dominates", runExplore},
}

func main() {
	name := flag.String("workload", "", "workload to run: browse, live or explore")
	seed := flag.Int64("seed", 1, "seed for the generated data and op streams")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed pass")
	spans := flag.String("spans", "", "file for the traced run's spans (default .bench_build/spans/<workload>-<seed>.json)")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *manifest {
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	cfg := config{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spansOut: *spans,
	}
	if cfg.trace && cfg.spansOut == "" {
		cfg.spansOut = fmt.Sprintf(".bench_build/spans/%s-%d.json", w.name, cfg.seed)
	}
	// Timed runs are the production configuration: obs counters and the
	// flight recorder off. The traced run turns counters on around its
	// own passes.
	obs.SetEnabled(false)
	obs.SetFlightEnabled(false)

	out, err := w.run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	specs, extras := endToEnd, reported
	if cfg.trace {
		specs, extras = perLayer, nil
	}
	if err := printResult(os.Stdout, w.name, cfg, specs, extras, out); err != nil {
		fatal(err)
	}
	if !out.correct {
		os.Exit(1)
	}
}

// printResult writes one human-readable line per metric (specs, then
// the ungated extras), a metadata line, and last the JSON result line,
// which holds the specs only.
func printResult(f *os.File, name string, cfg config, specs, extras []metricSpec, out *outcome) error {
	metrics := make(map[string]any, len(specs))
	for i, s := range append(append([]metricSpec(nil), specs...), extras...) {
		v, ok := out.metrics[s.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s not produced", name, s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v (no op completed?)", name, s.Name, v)
		}
		note := ""
		if i >= len(specs) {
			note = " (not gated)"
		}
		fmt.Fprintf(f, "%-34s %14.4f %s%s\n", s.Name, v, s.Unit, note)
		if i < len(specs) {
			metrics[s.Name] = map[string]any{"value": v, "unit": s.Unit}
		}
	}
	meta := map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.duration.Seconds(),
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"git_rev":    gitRevision(),
		"report":     out.report,
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "meta %s\n", mb)
	res := map[string]any{
		"correct":   out.correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s\n", rb)
	return nil
}

// gitRevision reports the revision run.sh found for the checkout, or
// "unknown" outside a git work tree.
func gitRevision() string {
	if rev := strings.TrimSpace(os.Getenv("TIOGA_GIT_REV")); rev != "" {
		return rev
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

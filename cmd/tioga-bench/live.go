package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/types"
)

// stationsLiveReport is the streaming-workload section of
// BENCH_query.json: a live Observations feed (appendsPerFrame tuples
// arriving between frames) against a restrict→join chain feeding a
// render-ready display, timed with delta propagation on (incremental
// maintenance of the memoized outputs) and off (every frame refires the
// dirty suffix in full). The per-frame numbers cover exactly the eval
// work a frame pays — delta enqueue plus demand — so the comparison
// isolates O(changed tuples) against O(table); the writes themselves
// cost the same in both legs and are excluded.
type stationsLiveReport struct {
	Workload         string           `json:"workload"`
	Rows             int              `json:"rows"`
	ObservationRows  int              `json:"observation_rows"`
	AppendsPerFrame  int              `json:"appends_per_frame"`
	Frames           int              `json:"frames"`
	DeltaNsPerFrame  int64            `json:"delta_ns_per_frame"`
	FullNsPerFrame   int64            `json:"full_ns_per_frame"`
	Speedup          float64          `json:"speedup"`
	OutputsIdentical bool             `json:"outputs_identical"`
	DeltaPerFrame    map[string]int64 `json:"delta_counters_per_frame,omitempty"`
}

// liveLegResult is one leg of the comparison: mean eval cost per frame
// and the fingerprint of the final output, which must agree across legs
// (the delta leg's memos are only ever patched, never refired from the
// live table, so equality is the incremental-vs-full differential).
type liveLegResult struct {
	nsPerFrame  int64
	fingerprint string
	counters    map[string]int64
}

// runLiveLeg plays the streaming scenario once. Both legs seed the same
// database, build the same program, and append the same tuples (the
// write RNG is fixed), differing only in whether a frame enqueues the
// deltas or touches the table (full refire). The environment is detached —
// the synchronous Watch wiring of single-user sessions would Touch the
// table box on every write and defeat delta propagation, exactly as in
// the multi-client server, whose event-pump path this leg mirrors.
func runLiveLeg(rows, perStation, appendsPerFrame, frames int, deltaOn, withCounters bool) (*liveLegResult, error) {
	d, err := core.SeedDatabase(rows, perStation, 42)
	if err != nil {
		return nil, err
	}
	env := core.NewDetachedEnvironment(d)
	tb, err := env.Program.AddBox("table", dataflow.Params{"name": "Stations"})
	if err != nil {
		return nil, err
	}
	rb, err := env.Program.AddBox("restrict", dataflow.Params{"pred": "latitude > 29.0"})
	if err != nil {
		return nil, err
	}
	ob, err := env.Program.AddBox("table", dataflow.Params{"name": "Observations"})
	if err != nil {
		return nil, err
	}
	jb, err := env.Program.AddBox("join", dataflow.Params{"pred": "id = station_id", "strategy": "hash"})
	if err != nil {
		return nil, err
	}
	if err := env.Program.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		return nil, err
	}
	if err := env.Program.Connect(rb.ID, 0, jb.ID, 0); err != nil {
		return nil, err
	}
	if err := env.Program.Connect(ob.ID, 0, jb.ID, 1); err != nil {
		return nil, err
	}

	ch, cancel := d.Subscribe()
	defer cancel()
	ctx := context.Background()
	demand := func() (dataflow.Value, error) {
		res, err := env.Eval.Eval(ctx, dataflow.Request{Box: jb.ID, Port: 0})
		if err != nil {
			return nil, err
		}
		return res.Value, err
	}
	if _, err := demand(); err != nil { // warm the memos; frames are steady-state
		return nil, fmt.Errorf("warm demand: %w", err)
	}

	rng := rand.New(rand.NewSource(7))
	liveTuple := func() []types.Value {
		return []types.Value{
			types.NewInt(int64(rng.Intn(rows))),
			types.DateYMD(1996, 1+rng.Intn(12), 1+rng.Intn(28)),
			types.NewFloat(float64(40 + rng.Intn(60))),
			types.NewFloat(float64(rng.Intn(10))),
		}
	}
	// playFrame appends the batch, collects its deltas off the event
	// stream as the server's pump would, and times enqueue + demand.
	playFrame := func() (int64, error) {
		for i := 0; i < appendsPerFrame; i++ {
			if err := d.AppendTuple("Observations", liveTuple()); err != nil {
				return 0, err
			}
		}
		var deltas []dataflow.TableDelta
		for len(deltas) < appendsPerFrame {
			select {
			case ev := <-ch:
				if ev.Table != "Observations" || ev.Delta == nil {
					return 0, fmt.Errorf("unexpected event %v on %s", ev.Kind, ev.Table)
				}
				deltas = append(deltas, dataflow.TableDelta{PrevGen: ev.PrevGen, Gen: ev.Gen, Ops: ev.Delta.Ops})
			case <-time.After(10 * time.Second):
				return 0, fmt.Errorf("timed out waiting for append events (%d/%d)", len(deltas), appendsPerFrame)
			}
		}
		// The appends above churn O(table) of CoW garbage per frame; collect
		// it before the window opens so the timed numbers measure eval, not
		// a collection the writes scheduled. The delta frames are hundreds
		// of microseconds — one stray GC pause inside the window would
		// dominate the mean and destabilize the gated ratio.
		runtime.GC()
		start := time.Now()
		if deltaOn {
			env.Eval.EnqueueTableDelta("Observations", deltas)
		} else {
			env.TouchTable("Observations")
		}
		if _, err := demand(); err != nil {
			return 0, err
		}
		return time.Since(start).Nanoseconds(), nil
	}

	// One unmeasured warm frame: the first delta through the join pays a
	// one-time state build (the hash index the maintenance works against),
	// exactly as the first full firing paid the plan build. Steady-state
	// frames are the claim; the full leg plays the same frame so the legs
	// keep identical write sequences and final content.
	if _, err := playFrame(); err != nil {
		return nil, fmt.Errorf("warm frame: %w", err)
	}

	var totalNS int64
	var frameErr error
	timedSection(func() {
		for f := 0; f < frames; f++ {
			ns, err := playFrame()
			if err != nil {
				frameErr = fmt.Errorf("frame %d: %w", f, err)
				return
			}
			totalNS += ns
		}
	})
	if frameErr != nil {
		return nil, frameErr
	}

	res := &liveLegResult{nsPerFrame: totalNS / int64(frames)}
	v, err := demand() // memoized: the state every timed frame left behind
	if err != nil {
		return nil, err
	}
	if res.fingerprint, err = fingerprint(v); err != nil {
		return nil, err
	}

	if withCounters {
		// One extra instrumented frame yields the per-frame delta
		// counter profile (enqueued batches, applied boxes, ops, and any
		// fallbacks — a healthy run shows zero fallbacks).
		obs.Reset()
		prevObs := obs.Enabled()
		obs.SetEnabled(true)
		before := obs.TakeSnapshot()
		if _, err := playFrame(); err != nil {
			obs.SetEnabled(prevObs)
			return nil, fmt.Errorf("instrumented frame: %w", err)
		}
		res.counters = obs.CounterDelta(before, obs.TakeSnapshot())
		obs.SetEnabled(prevObs)
		obs.Reset()
	}
	return res, nil
}

// runStationsLive produces the stations_live section: delta-on vs
// delta-off over identical write sequences, with the output-identity
// check the speedup is only meaningful with. The instrumented frame the
// counter pass adds runs after timing and only on the delta leg, so the
// legs' timed portions see identical tables.
func runStationsLive(quick, verbose bool) (*stationsLiveReport, error) {
	// Quick mode keeps the full table size and only trims frames: the
	// gated speedup is O(rows) by design — delta frames cost O(changed
	// tuples) while full frames cost O(table) — so shrinking the dataset
	// would shrink the ratio and trip the cross-scale regression gate on
	// a number that regressed only in scale, not in behavior.
	rows, perStation, appendsPerFrame, frames := 100000, 1, 10, 30
	if quick {
		frames = 8
	}
	deltaLeg, err := runLiveLeg(rows, perStation, appendsPerFrame, frames, true, true)
	if err != nil {
		return nil, fmt.Errorf("delta leg: %w", err)
	}
	fullLeg, err := runLiveLeg(rows, perStation, appendsPerFrame, frames, false, false)
	if err != nil {
		return nil, fmt.Errorf("full leg: %w", err)
	}
	report := &stationsLiveReport{
		Workload:         "stations_live",
		Rows:             rows,
		ObservationRows:  rows * perStation,
		AppendsPerFrame:  appendsPerFrame,
		Frames:           frames,
		DeltaNsPerFrame:  deltaLeg.nsPerFrame,
		FullNsPerFrame:   fullLeg.nsPerFrame,
		Speedup:          float64(fullLeg.nsPerFrame) / float64(deltaLeg.nsPerFrame),
		OutputsIdentical: deltaLeg.fingerprint == fullLeg.fingerprint,
		DeltaPerFrame:    deltaLeg.counters,
	}
	if verbose {
		fmt.Printf("%-24s %12d ns/frame (delta)\n", "stations_live", report.DeltaNsPerFrame)
		fmt.Printf("%-24s %12d ns/frame (full refire)\n", "", report.FullNsPerFrame)
	}
	return report, nil
}

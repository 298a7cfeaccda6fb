package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/types"
)

// setupStationsLive times a live Observations feed against a
// restrict→join chain, with delta propagation (incremental maintenance
// of the memoized outputs) against full refiring of the dirty suffix.
// Each leg owns a database seeded alike and appends the same tuples
// (the write RNG is fixed), so after the same number of frames both
// hold the same tables; the delta leg's memos are only ever patched,
// never refired from the live table, so equal outputs are the
// incremental-vs-full differential.
func setupStationsLive(p params) (*ablation, error) {
	full, cancelFull, err := newLiveLeg(p, false)
	if err != nil {
		return nil, fmt.Errorf("full leg: %w", err)
	}
	delta, cancelDelta, err := newLiveLeg(p, true)
	if err != nil {
		cancelFull()
		return nil, fmt.Errorf("delta leg: %w", err)
	}
	return &ablation{
		baseline:    full,
		fast:        delta,
		fingerprint: fingerprint,
		checkOps:    p["frames"],
		iterations:  p["frames"],
		release: func() {
			cancelFull()
			cancelDelta()
		},
	}, nil
}

// newLiveLeg builds one leg and returns the cancel of its event
// subscription. The environment is detached — the synchronous Watch
// wiring of single-user sessions would Touch the table box on every
// write and defeat delta propagation, exactly as in the multi-client
// server, whose event-pump path this leg mirrors.
func newLiveLeg(p params, deltaOn bool) (leg, func(), error) {
	rows, appends := p["rows"], p["appends_per_frame"]
	d, err := core.SeedDatabase(rows, p["per_station"], 42)
	if err != nil {
		return leg{}, nil, err
	}
	env := core.NewDetachedEnvironment(d)
	tb, err := env.Program.AddBox("table", dataflow.Params{"name": "Stations"})
	if err != nil {
		return leg{}, nil, err
	}
	rb, err := env.Program.AddBox("restrict", dataflow.Params{"pred": "latitude > 29.0"})
	if err != nil {
		return leg{}, nil, err
	}
	ob, err := env.Program.AddBox("table", dataflow.Params{"name": "Observations"})
	if err != nil {
		return leg{}, nil, err
	}
	jb, err := env.Program.AddBox("join", dataflow.Params{"pred": "id = station_id", "strategy": "hash"})
	if err != nil {
		return leg{}, nil, err
	}
	if err := env.Program.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		return leg{}, nil, err
	}
	if err := env.Program.Connect(rb.ID, 0, jb.ID, 0); err != nil {
		return leg{}, nil, err
	}
	if err := env.Program.Connect(ob.ID, 0, jb.ID, 1); err != nil {
		return leg{}, nil, err
	}

	demand := func() (any, error) {
		res, err := env.Eval.Eval(context.Background(), dataflow.Request{Box: jb.ID, Port: 0})
		return res.Value, err
	}
	if _, err := demand(); err != nil { // warm the memos; frames are steady-state
		return leg{}, nil, fmt.Errorf("warm demand: %w", err)
	}

	ch, cancel := d.Subscribe()
	rng := rand.New(rand.NewSource(7))
	liveTuple := func() []types.Value {
		return []types.Value{
			types.NewInt(int64(rng.Intn(rows))),
			types.DateYMD(1996, 1+rng.Intn(12), 1+rng.Intn(28)),
			types.NewFloat(float64(40 + rng.Intn(60))),
			types.NewFloat(float64(rng.Intn(10))),
		}
	}
	var pending []dataflow.TableDelta
	l := leg{mode: "full refire"}
	if deltaOn {
		l.mode = "delta"
	}
	// prepare appends the frame's batch and collects its deltas off the
	// event stream as the server's pump would.
	l.prepare = func() error {
		for i := 0; i < appends; i++ {
			if err := d.AppendTuple("Observations", liveTuple()); err != nil {
				return err
			}
		}
		pending = nil
		for len(pending) < appends {
			select {
			case ev := <-ch:
				if ev.Table != "Observations" || ev.Delta == nil {
					return fmt.Errorf("unexpected event %v on %s", ev.Kind, ev.Table)
				}
				pending = append(pending, dataflow.TableDelta{PrevGen: ev.PrevGen, Gen: ev.Gen, Ops: ev.Delta.Ops})
			case <-time.After(10 * time.Second):
				return fmt.Errorf("timed out waiting for append events (%d/%d)", len(pending), appends)
			}
		}
		// The appends churn O(table) of copy-on-write garbage; collect it
		// before the op, so a delta frame of a few hundred microseconds
		// does not pay for a collection the writes scheduled.
		runtime.GC()
		return nil
	}
	l.op = func() (any, error) {
		if deltaOn {
			env.Eval.EnqueueTableDelta("Observations", pending)
		} else {
			env.TouchTable("Observations")
		}
		return demand()
	}
	return l, cancel, nil
}

package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/db"
	"repro/internal/server"
	"repro/internal/viewer"
)

// replayServe re-executes the traced pass's ops and writes, in the
// order they were issued, against a fresh copy of the database in
// process: each write goes through the database and then through the
// work the server's event pump does for it (Session.ApplyEvents on a
// session without clients, and a mirror of it — Snapshot plus
// EnqueueTableDelta — on the replay evaluator); each op goes through the
// client viewer's op, then Eval, RenderIntoCtx and WritePNG. Every call
// gets a span. Pushed re-renders are not replayed: the replay prices
// one frame per op. It stops after budget even if ops remain.
func replayServe(cfg config, rec *recorder, ops []loggedOp, writes []loggedWrite, budget time.Duration, out *outcome) error {
	ctx := context.Background()
	d, err := core.SeedDatabase(serveStations, servePerStation, cfg.seed)
	if err != nil {
		return err
	}
	env := core.NewDetachedEnvironment(d)
	name, err := stationsCanvas(env)
	if err != nil {
		return err
	}
	tmpl, err := env.Canvas(name)
	if err != nil {
		return err
	}
	bs := tmpl.Source.(viewer.BoxSource)
	root := dataflow.Request{Box: bs.BoxID, Port: bs.Port, Input: true}
	env.Eval.SetTableSource(d.Snapshot())
	env.Eval.InvalidateAll()
	viewers := make([]*viewer.Viewer, nClients)
	for i := range viewers {
		viewers[i] = viewer.New(fmt.Sprintf("%s/replay%d", name, i), viewer.BoxSource{Eval: env.Eval, BoxID: bs.BoxID, Port: bs.Port}, frameW, frameH)
		viewers[i].SetStates(tmpl.States())
		// Warm the memo and render caches as the clients' first frames did.
		if _, err := renderPNG(ctx, viewers[i]); err != nil {
			return err
		}
	}
	sess, err := server.NewSession("replay", d, stationsCanvas)
	if err != nil {
		return err
	}
	events, cancel := d.Subscribe()
	defer cancel()

	type step struct {
		at time.Time
		op *loggedOp
		w  *loggedWrite
	}
	var steps []step
	for i := range ops {
		steps = append(steps, step{at: ops[i].at, op: &ops[i]})
	}
	for i := range writes {
		steps = append(steps, step{at: writes[i].at, w: &writes[i]})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at.Before(steps[j].at) })

	var nOps int
	var sizes []float64
	opID := 1 << 30 // replay op ids, apart from the client-side ones
	c, err := counting(func() error {
		deadline := time.Now().Add(budget)
		for _, s := range steps {
			if time.Now().After(deadline) {
				break
			}
			if s.w != nil {
				if err := replayWrite(ctx, rec, opID, d, env, sess, events, s.w.w); err != nil {
					return err
				}
				opID++
				continue
			}
			t0 := time.Now()
			top := rec.add(spanOp, opID, -1, t0, t0)
			v := viewers[s.op.client]
			if err := applyOp(v, s.op.op); err != nil {
				return err
			}
			png, err := tracedFrame(ctx, rec, opID, top, env.Eval, root, v)
			if err != nil {
				return err
			}
			rec.finish(top, time.Now())
			sizes = append(sizes, float64(len(png)))
			nOps++
			opID++
		}
		return nil
	})
	if err != nil {
		return err
	}
	layerMetrics(out, rec, c, nOps, nOps, sizes)
	out.metrics["server.apply_ms_p50"] = median(rec.durations(spanApply))
	wr := rec.durations(spanWrite)
	out.metrics["db.write_ms_p50"] = median(wr)
	out.metrics["db.write_ms_p99"] = quantile(wr, tailQuantile(len(wr)))
	out.metrics["db.snapshot_ms_p50"] = median(rec.durations(spanSnapshot))
	out.report["replay_writes"] = len(wr)
	return nil
}

// replayWrite commits one write and does the event pump's work for it,
// one span per call.
func replayWrite(ctx context.Context, rec *recorder, id int, d *db.Database, env *core.Environment,
	sess *server.Session, events <-chan db.Event, w write) error {
	t0 := time.Now()
	if err := w.apply(d); err != nil {
		return err
	}
	t1 := time.Now()
	rec.add(spanWrite, id, -1, t0, t1)
	var ev db.Event
	select {
	case ev = <-events:
	case <-time.After(watchdog):
		return fmt.Errorf("no event for write %d", id)
	}
	t2 := time.Now()
	sess.ApplyEvents(ctx, []db.Event{ev})
	t3 := time.Now()
	rec.add(spanApply, id, -1, t2, t3)
	snap := d.Snapshot()
	t4 := time.Now()
	rec.add(spanSnapshot, id, -1, t3, t4)
	env.Eval.SetTableSource(snap)
	if ev.Delta != nil && ev.Gen != 0 {
		env.Eval.EnqueueTableDelta(ev.Table, []dataflow.TableDelta{{PrevGen: ev.PrevGen, Gen: ev.Gen, Ops: ev.Delta.Ops}})
	} else {
		env.TouchTable(ev.Table)
	}
	rec.add(spanEnqueue, id, -1, t4, time.Now())
	return nil
}

// applyOp applies a client op to a viewer the way the server's client
// loop does.
func applyOp(v *viewer.Viewer, op server.ClientOp) error {
	switch op.Op {
	case "pan":
		return v.Pan(op.Member, op.DX, op.DY)
	case "zoom":
		return v.Zoom(op.Member, op.Factor)
	case "elev":
		return v.SetElevation(op.Member, op.Elev)
	case "view":
		if err := v.PanTo(op.Member, op.X, op.Y); err != nil {
			return err
		}
		return v.SetElevation(op.Member, op.Elev)
	}
	return fmt.Errorf("replay: op %q not replayable", op.Op)
}

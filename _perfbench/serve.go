package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server"
)

// browse and live serve the stations canvas from an in-process
// server.Server to two WebSocket clients in a closed loop; live adds
// the open-loop writer.
const (
	serveStations   = 20000
	servePerStation = 2
	nClients        = 2
)

// rig is one running server with its attached clients.
type rig struct {
	db      *db.Database
	srv     *server.Server
	sess    *server.Session
	clients []*wsClient
}

// setupRig seeds the database, starts the server and attaches the
// clients, returning once every client holds its first frame.
func setupRig(seed int64) (*rig, time.Duration, error) {
	t0 := time.Now()
	d, err := core.SeedDatabase(serveStations, servePerStation, seed)
	if err != nil {
		return nil, 0, err
	}
	r := &rig{db: d, srv: server.New(d)}
	if r.sess, err = r.srv.AddSession("bench", stationsCanvas); err != nil {
		r.close()
		return nil, 0, err
	}
	addr, err := r.srv.Start("127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, 0, err
	}
	for i := 0; i < nClients; i++ {
		c, err := dial(addr, i)
		if err != nil {
			r.close()
			return nil, 0, err
		}
		r.clients = append(r.clients, c)
	}
	for _, c := range r.clients {
		if err := c.waitFirstFrame(); err != nil {
			r.close()
			return nil, 0, err
		}
	}
	return r, time.Since(t0), nil
}

// close disconnects the clients, then stops the server; both wait for
// the goroutines they own.
func (r *rig) close() {
	for _, c := range r.clients {
		c.close()
	}
	_ = r.srv.Close()
}

// setupRepeated sets the rig up repeats times, keeps the last and
// returns the median set-up time.
func setupRepeated(seed int64, repeats int) (*rig, float64, error) {
	var times []float64
	var r *rig
	for i := 0; i < repeats; i++ {
		if r != nil {
			r.close()
		}
		r = nil
		runtime.GC()
		var d time.Duration
		var err error
		if r, d, err = setupRig(seed); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return r, median(times), nil
}

// loggedOp is one op as sent, for the in-process replay.
type loggedOp struct {
	at     time.Time
	client int
	op     server.ClientOp
}

// loopResult is one closed-loop pass over all clients.
type loopResult struct {
	lat       []float64 // per attempted op, ms; failed ops enter at the watchdog
	attempted int
	failed    int
	elapsed   time.Duration
	ops       []loggedOp
	// seen maps each viewport to the PNG hash the clients received for
	// it (browse oracle); conflicts lists viewports that got two.
	seen      map[viewport][32]byte
	conflicts []string
}

// runLoop drives every client's script until until. Each client sends
// its next op only once the previous one's PNG has arrived. With rec
// set it records the client-side spans of each op.
func runLoop(r *rig, scripts []*script, until time.Time, rec *recorder, opBase int) loopResult {
	type clientRes struct {
		lat               []float64
		attempted, failed int
		ops               []loggedOp
		seen              map[viewport][32]byte
		conflicts         []string
		end               time.Time
	}
	results := make([]clientRes, len(r.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range r.clients {
		wg.Add(1)
		go func(ci int, c *wsClient) {
			defer wg.Done()
			res := &results[ci]
			res.seen = map[viewport][32]byte{}
			for n := 0; time.Now().Before(until); n++ {
				op, vp := scripts[ci].next()
				op.Token = fmt.Sprintf("c%d-%d", ci, opBase+n)
				t0 := time.Now()
				res.attempted++
				res.ops = append(res.ops, loggedOp{at: t0, client: ci, op: op})
				a, err := c.roundTrip(op)
				if err != nil {
					res.failed++
					res.lat = append(res.lat, ms(watchdog))
					if errors.Is(err, errConn) {
						break
					}
					continue
				}
				res.lat = append(res.lat, ms(a.pngAt.Sub(t0)))
				if rec != nil {
					id := len(r.clients)*(opBase+n) + ci
					root := rec.add(spanClientOp, id, -1, t0, a.pngAt)
					rec.add(spanClientMeta, id, root, t0, a.metaAt)
					rec.add(spanClientPNG, id, root, a.metaAt, a.pngAt)
				}
				got := viewport{X: a.meta.Viewport.CX, Y: a.meta.Viewport.CY, Elev: a.meta.Viewport.Elev}
				h := pngHash(a.png)
				switch prev, ok := res.seen[got]; {
				case got != vp:
					res.conflicts = append(res.conflicts, fmt.Sprintf("op %s: frame viewport %v, script expects %v", op.Token, got, vp))
				case ok && prev != h:
					res.conflicts = append(res.conflicts, fmt.Sprintf("viewport %v: two different PNGs", got))
				default:
					res.seen[got] = h
				}
			}
			res.end = time.Now()
		}(ci, c)
	}
	wg.Wait()
	var out loopResult
	out.seen = map[viewport][32]byte{}
	for _, res := range results {
		out.lat = append(out.lat, res.lat...)
		out.attempted += res.attempted
		out.failed += res.failed
		out.ops = append(out.ops, res.ops...)
		out.conflicts = append(out.conflicts, res.conflicts...)
		for vp, h := range res.seen {
			if prev, ok := out.seen[vp]; ok && prev != h {
				out.conflicts = append(out.conflicts, fmt.Sprintf("viewport %v: clients received different PNGs", vp))
			}
			out.seen[vp] = h
		}
		if d := res.end.Sub(start); d > out.elapsed {
			out.elapsed = d
		}
	}
	return out
}

// totalBytes sums the payload bytes every client has received.
func (r *rig) totalBytes() int64 {
	var n int64
	for _, c := range r.clients {
		n += c.bytes.Load()
	}
	return n
}

// startWriter starts the open-loop writer on a fresh schedule whose
// first write is due now, and points every client's freshness
// accounting at it. wait returns the writer's result.
func (r *rig) startWriter(seed int64, until time.Time) (wait func() writerResult) {
	sched := &writeSchedule{start: time.Now(), base: r.db.Snapshot().Seq()}
	for _, c := range r.clients {
		c.mu.Lock()
		c.sched = sched
		c.fresh = nil
		c.mu.Unlock()
	}
	done := make(chan writerResult, 1)
	go func() { done <- runWriter(r.db, sched, writeStream(seed, serveStations), until) }()
	return func() writerResult { return <-done }
}

// quiesce waits, under the watchdog, until the session and every client
// have seen the database's latest commit.
func (r *rig) quiesce() error {
	want := r.db.Snapshot().Seq()
	deadline := time.Now().Add(watchdog)
	for time.Now().Before(deadline) {
		_, seq := r.sess.Generations()
		ok := seq >= want
		for _, c := range r.clients {
			ok = ok && c.snap() >= want
		}
		if ok {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("quiesce: clients did not reach commit %d within %v", want, watchdog)
}

// freshness collects every client's freshness samples.
func (r *rig) freshness() []float64 {
	var out []float64
	for _, c := range r.clients {
		c.mu.Lock()
		out = append(out, c.fresh...)
		c.mu.Unlock()
	}
	return out
}

func runBrowse(cfg config) (*outcome, error) { return runServe(cfg, false) }
func runLive(cfg config) (*outcome, error)   { return runServe(cfg, true) }

// runServe is the timed run of browse (live=false) or live.
func runServe(cfg config, live bool) (*outcome, error) {
	out := newOutcome()
	// The traced run reports no set-up time and sets up once.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	r, setup, err := setupRepeated(cfg.seed, repeats)
	if err != nil {
		return nil, err
	}
	defer r.close()
	out.metrics["setup_s"] = setup
	scripts := make([]*script, nClients)
	for i := range scripts {
		scripts[i] = newScript(cfg.seed, i)
	}
	if cfg.trace {
		return traceServe(cfg, r, scripts, live, out)
	}

	runtime.GC()
	heap := startHeapSampler()
	bytes0 := r.totalBytes()
	until := time.Now().Add(cfg.duration)
	var waitWriter func() writerResult
	if live {
		waitWriter = r.startWriter(cfg.seed, until)
	}
	res := runLoop(r, scripts, until, nil, 0)
	bytes1 := r.totalBytes()
	var wres writerResult
	if live {
		wres = waitWriter()
		if wres.err != nil {
			return nil, wres.err
		}
	}
	out.metrics["heap_peak_mb"] = heap.stopMB()
	out.attempted, out.failed = res.attempted, res.failed
	tail := browseTail
	if live {
		tail = liveTail
	}
	fillOpMetrics(out, res.lat, res.elapsed, tail)
	out.metrics["wire_kb_per_op"] = float64(bytes1-bytes0) / 1024 / float64(res.attempted-res.failed)

	if live {
		if err := r.quiesce(); err != nil {
			out.fail("%v", err)
		}
		fresh := r.freshness()
		out.metrics["freshness_p50_ms"] = median(fresh)
		out.metrics["freshness_p99_ms"] = quantile(fresh, freshnessTail)
		out.report["freshness_samples"] = len(fresh)
		out.report["writes"] = len(wres.writes)
		out.report["writer_lag_p99_ms"] = quantile(wres.lagMS, tailQuantile(len(wres.lagMS)))
		if err := checkLive(r, out); err != nil {
			return nil, err
		}
	} else {
		// Without writes the only state change a user makes is the op
		// itself, so freshness is the op's own latency.
		out.metrics["freshness_p50_ms"] = out.metrics["op_p50_ms"]
		out.metrics["freshness_p99_ms"] = out.metrics["op_p99_ms"]
		if err := checkBrowse(r.db, res, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkBrowse renders every viewport the clients received in process
// with a fresh environment and compares PNGs byte for byte.
func checkBrowse(d *db.Database, res loopResult, out *outcome) error {
	for _, c := range res.conflicts {
		out.fail("browse: %s", c)
	}
	v, err := refViewer(core.NewDetachedEnvironment(d))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for vp, h := range res.seen {
		if err := vp.apply(v); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		png, err := renderPNG(context.Background(), v)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if pngHash(png) != h {
			out.fail("browse: viewport %v: served PNG differs from the reference render", vp)
		}
	}
	out.report["oracle_viewports_checked"] = len(res.seen)
	return nil
}

// checkLive asks every client for the home viewport once the writer has
// stopped and the clients have quiesced: the frames must be identical,
// rendered against the final commit, and equal a fresh environment's
// render of the final database.
func checkLive(r *rig, out *outcome) error {
	final := r.db.Snapshot().Seq()
	home := viewport{X: homeX, Y: homeY, Elev: homeElev}
	var first [32]byte
	for i, c := range r.clients {
		a, err := c.roundTrip(server.ClientOp{Op: "view", X: home.X, Y: home.Y, Elev: home.Elev,
			Token: fmt.Sprintf("final-%d", i)})
		if err != nil {
			out.fail("live: final frame of client %d: %v", i, err)
			return nil
		}
		if a.meta.Snap != final {
			out.fail("live: client %d final frame at commit %d, want %d", i, a.meta.Snap, final)
		}
		h := pngHash(a.png)
		if i == 0 {
			first = h
		} else if h != first {
			out.fail("live: clients 0 and %d hold different final frames", i)
		}
	}
	v, err := refViewer(core.NewDetachedEnvironment(r.db))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := home.apply(v); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	png, err := renderPNG(context.Background(), v)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if pngHash(png) != first {
		out.fail("live: final frame differs from the reference render of commit %d", final)
	}
	return nil
}

// framesBetween returns the frames every client received in [from, to).
func (r *rig) framesBetween(from, to time.Time) []frameRecord {
	var out []frameRecord
	for _, c := range r.clients {
		c.mu.Lock()
		for _, f := range c.frames {
			if !f.at.Before(from) && f.at.Before(to) {
				out = append(out, f)
			}
		}
		c.mu.Unlock()
	}
	return out
}

// traceServe is the traced run of browse or live: an untraced pass for
// the overhead baseline, a traced pass against the real server with
// client-side spans and obs counters on, then an in-process replay of
// the traced pass's op and write stream with a span per layer call.
func traceServe(cfg config, r *rig, scripts []*script, live bool, out *outcome) (*outcome, error) {
	zeroLayers(out)
	phase := cfg.duration / 3

	// Pass A: untraced baseline.
	until := time.Now().Add(phase)
	var waitWriter func() writerResult
	if live {
		waitWriter = r.startWriter(cfg.seed, until)
	}
	base := runLoop(r, scripts, until, nil, 0)
	out.attempted, out.failed = base.attempted, base.failed
	if live {
		w := waitWriter()
		if w.err != nil {
			return nil, w.err
		}
		out.metrics["bench.writer_lag_p99_ms"] = quantile(w.lagMS, tailQuantile(len(w.lagMS)))
		if err := r.quiesce(); err != nil {
			return nil, err
		}
	}

	// Pass B: traced, against the real server.
	rec := &recorder{}
	var traced loopResult
	var wres writerResult
	var from, to time.Time
	c, err := counting(func() error {
		from = time.Now()
		until := from.Add(phase)
		if live {
			waitWriter = r.startWriter(cfg.seed+1, until)
		}
		// Tokens apart from pass A's, so a late pass-A frame cannot
		// answer a pass-B op.
		traced = runLoop(r, scripts, until, rec, 1<<20)
		if live {
			wres = waitWriter()
			if wres.err != nil {
				return wres.err
			}
			if err := r.quiesce(); err != nil {
				return err
			}
		}
		to = time.Now()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.attempted += traced.attempted
	out.failed += traced.failed
	done := traced.attempted - traced.failed
	frames := r.framesBetween(from, to)
	var sizes, renders []float64
	for _, f := range frames {
		sizes = append(sizes, float64(f.pngBytes))
		renders = append(renders, float64(f.renderNS)/1e6)
	}
	out.metrics["server.frames_per_op"] = ratio(int64(len(frames)), int64(done))
	out.metrics["server.broadcasts_per_write"] = ratio(c[obs.ServerBroadcasts], int64(len(wres.writes)))
	out.metrics["server.frame_bytes_p50"] = median(sizes)
	out.metrics["server.render_ms_p50"] = median(renders)
	rtt := rec.durations(spanClientOp)
	rttP50 := median(rtt)
	out.report["traced_op_p50_ms"] = rttP50
	out.report["untraced_op_p50_ms"] = median(base.lat)
	out.report["server_counters"] = c
	out.metrics["bench.trace_overhead_frac"] = rttP50/median(base.lat) - 1

	// Replay the traced pass in process, layer by layer.
	if err := replayServe(cfg, rec, traced.ops, wres.writes, phase, out); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	layers := out.metrics["dataflow.eval_ms_p50"] + out.metrics["viewer.render_ms_p50"] + out.metrics["raster.encode_ms_p50"]
	out.metrics["server.rtt_gap_ms_p50"] = rttP50 - layers
	out.metrics["bench.unattributed_frac"] = (rttP50 - layers) / rttP50
	if err := rec.writeChrome(cfg.spansOut); err != nil {
		return nil, err
	}
	return out, nil
}

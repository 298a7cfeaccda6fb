package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/viewer"
)

// Builder constructs a session's dataflow program inside a fresh
// environment and returns the name of the canvas to serve.
// core.Figure7 is the stock demo builder.
type Builder func(env *core.Environment) (string, error)

// SessionOption configures a session at creation time.
type SessionOption func(*Session)

// WithWorkerBudget caps the number of boxes the session's evaluator
// fires concurrently within one client frame, and the chunk workers of
// each scan those firings run. Zero or negative leaves
// the evaluator default (GOMAXPROCS) in place — see DESIGN §13: the
// default is unbounded per frame, and a shared server hosting many
// sessions sets a budget so one client's deep program cannot starve
// the others' frames of CPU.
func WithWorkerBudget(n int) SessionOption {
	return func(s *Session) { s.workers = n }
}

// Session is one shared visualization: a dataflow program over the
// database, rendered independently by any number of attached clients.
// All clients see the same program output; each holds its own viewer,
// so pan, zoom, and elevation are per-client state.
//
// The session's evaluator reads tables through a snapSource pinned to
// one immutable db.Snap. Client frames render under the read half of
// mu; ApplyEvents advances the pinned snapshot under the write half.
// Database writers take neither lock — a writer is never blocked by a
// render in flight.
type Session struct {
	Name   string
	Canvas string

	db  *db.Database
	env *core.Environment
	src *snapSource

	boxID    int
	port     int
	defW     int
	defH     int
	workers  int // per-frame eval worker budget; <=0 means evaluator default
	defaults []viewer.ViewState

	// mu orders client frames (RLock, many at once) against snapshot
	// advances (Lock). It is never held while touching the database's
	// own lock, so the two locking domains cannot entangle.
	mu sync.RWMutex

	cmu     sync.Mutex
	clients map[*client]struct{}

	nextClient atomic.Int64
}

// NewSession builds a session by running build inside a detached
// environment (no synchronous Watch wiring — invalidation arrives via
// ApplyEvents) and pinning its evaluator to a snapshot of database.
func NewSession(name string, database *db.Database, build Builder, opts ...SessionOption) (*Session, error) {
	env := core.NewDetachedEnvironment(database)
	canvas, err := build(env)
	if err != nil {
		return nil, fmt.Errorf("server: building session %q: %w", name, err)
	}
	tmpl, err := env.Canvas(canvas)
	if err != nil {
		return nil, fmt.Errorf("server: session %q: %w", name, err)
	}
	bs, ok := tmpl.Source.(viewer.BoxSource)
	if !ok {
		return nil, fmt.Errorf("server: session %q: canvas %q: %w", name, canvas, ErrBadCanvas)
	}
	src := newSnapSource(database.Snapshot())
	env.Eval.SetTableSource(src)
	// The builder may have demanded against the live catalog; drop those
	// memos so every served frame is computed from the pinned snapshot.
	env.Eval.InvalidateAll()
	sess := &Session{
		Name:     name,
		Canvas:   canvas,
		db:       database,
		env:      env,
		src:      src,
		boxID:    bs.BoxID,
		port:     bs.Port,
		defW:     tmpl.W,
		defH:     tmpl.H,
		defaults: tmpl.States(),
		clients:  make(map[*client]struct{}),
	}
	for _, opt := range opts {
		opt(sess)
	}
	return sess, nil
}

// Generations returns the generation vector and database commit
// sequence of the currently pinned snapshot.
func (s *Session) Generations() (map[string]int64, uint64) {
	snap := s.src.current()
	return snap.Generations(), snap.Seq()
}

// Clients returns the number of attached clients.
func (s *Session) Clients() int {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return len(s.clients)
}

// ApplyEvents advances the session past a batch of database change
// events: re-snapshot, then for each changed table either enqueue its
// tuple deltas (when every event for the table carries one) so the
// evaluator patches memoized results incrementally, or touch its table
// boxes so the next demand re-fires the affected program suffix. The
// new generation vector is then pushed to every attached client so
// each re-renders its own viewport. Runs under the session write lock,
// so it never overlaps a client frame; it is called from the server's
// event pump, never from a writer's goroutine.
func (s *Session) ApplyEvents(ctx context.Context, evs []db.Event) {
	if len(evs) == 0 {
		return
	}
	_, sp := obs.StartSpanCtx(ctx, obs.SpanServerApply, "session", s.Name)
	defer sp.End()
	// Group per table in commit order. One structural event (create,
	// drop, load — no delta) poisons the table's whole batch: deltas
	// cannot be replayed across a wholesale replacement.
	type tableEvents struct {
		deltas []dataflow.TableDelta
		full   bool
	}
	order := make([]string, 0, len(evs))
	byTable := make(map[string]*tableEvents, len(evs))
	for _, ev := range evs {
		te, ok := byTable[ev.Table]
		if !ok {
			te = &tableEvents{}
			byTable[ev.Table] = te
			order = append(order, ev.Table)
		}
		if ev.Delta != nil && ev.Gen != 0 {
			te.deltas = append(te.deltas, dataflow.TableDelta{
				PrevGen: ev.PrevGen, Gen: ev.Gen, Ops: ev.Delta.Ops,
			})
		} else {
			te.full = true
		}
	}
	// Snapshot before taking s.mu: the session lock is documented as
	// never held while touching the database's own lock, and
	// ApplyEvents runs on the single pump goroutine, so the snapshot
	// taken here is still the newest one when the swap commits below.
	snap := s.db.Snapshot()
	s.mu.Lock()
	s.src.swap(snap)
	for _, t := range order {
		if te := byTable[t]; te.full {
			s.env.TouchTable(t)
		} else {
			s.env.Eval.EnqueueTableDelta(t, te.deltas)
		}
	}
	s.mu.Unlock()
	obs.Inc(obs.ServerBroadcasts)
	msg := GensMsg{Type: "gens", Gens: snap.Generations(), Snap: snap.Seq()}
	for _, c := range s.clientList() {
		c.invalidate(msg)
	}
}

// updateField runs the per-type update function for one field against
// the client's textual input — resolved against the snapshot version
// of the table the client was looking at — then installs the result
// through the optimistic UpdateTupleCAS path. A concurrent writer that
// advanced the table past the client's snapshot surfaces as
// db.ErrSnapshotStale rather than a silent clobber. Takes no session
// lock: the write path is the database's own, and the resulting event
// flows back through the pump like any other write.
func (s *Session) updateField(snap *db.Snap, table string, row int, col, input string) error {
	t, err := snap.Table(table)
	if err != nil {
		return err
	}
	if row < 0 || row >= t.Len() {
		return fmt.Errorf("server: update %s: row %d out of range", table, row)
	}
	ci := t.Schema().Index(col)
	if ci < 0 {
		return fmt.Errorf("server: update %s: no stored column %q", table, col)
	}
	kind := t.Schema().Col(ci).Kind
	current := t.Tuple(row)[ci]
	if current.IsNull() {
		current = types.Zero(kind)
	}
	nv, err := s.db.Updates().ForKind(kind)(current, input)
	if err != nil {
		return fmt.Errorf("server: update %s.%s: %w", table, col, err)
	}
	return s.db.UpdateTupleCAS(snap, table, row, col, nv)
}

// attach creates a client with its own viewer seeded from the session's
// view defaults. ctx is the client's connection context: demands issued
// by this client's frames abort when it disconnects.
func (s *Session) attach(ctx context.Context, ws *WSConn, w, h int) *client {
	if w <= 0 {
		w = s.defW
	}
	if h <= 0 {
		h = s.defH
	}
	id := fmt.Sprintf("c%d", s.nextClient.Add(1))
	var evalOpts []dataflow.EvalOption
	if s.workers > 0 {
		evalOpts = append(evalOpts, dataflow.WithWorkers(s.workers))
	}
	v := viewer.New(s.Canvas+"/"+id,
		viewer.BoxSource{Eval: s.env.Eval, BoxID: s.boxID, Port: s.port, Ctx: ctx, Options: evalOpts}, w, h)
	v.SetStates(s.defaults)
	c := &client{
		id:      id,
		session: s,
		ws:      ws,
		viewer:  v,
		dirty:   make(chan GensMsg, 1),
	}
	s.cmu.Lock()
	s.clients[c] = struct{}{}
	s.cmu.Unlock()
	obs.Inc(obs.ServerClients)
	return c
}

// detach removes a client; its viewer state dies with it.
func (s *Session) detach(c *client) {
	s.cmu.Lock()
	delete(s.clients, c)
	s.cmu.Unlock()
	obs.Inc(obs.ServerDetaches)
}

func (s *Session) clientList() []*client {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	out := make([]*client, 0, len(s.clients))
	for c := range s.clients {
		out = append(out, c)
	}
	return out
}

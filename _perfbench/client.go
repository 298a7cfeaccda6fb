package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// watchdog bounds every wait on the server, so a lost frame counts as a
// failed op instead of hanging the run.
const watchdog = 5 * time.Second

// errWatchdog marks an op whose frame did not arrive within watchdog;
// errConn one whose connection dropped.
var (
	errWatchdog = errors.New("watchdog: no frame")
	errConn     = errors.New("connection lost")
)

// answer is the frame that answers one op (its Token echoed), or the
// error that ended the wait.
type answer struct {
	meta   server.FrameMeta
	png    []byte
	metaAt time.Time
	pngAt  time.Time
	err    error
}

// frameRecord is one received frame, pushed or requested.
type frameRecord struct {
	at       time.Time
	pngBytes int
	renderNS int64
}

// wsClient is one benchmark connection. A reader goroutine owns the
// socket's read side: it records every frame and hands frames that
// answer an op to the op loop through answers.
type wsClient struct {
	id      int
	ws      *server.WSConn
	answers chan answer // room for late answers to ops that already timed out
	quit    chan struct{}
	done    chan struct{}
	first   chan struct{} // closed on the first frame
	once    sync.Once

	bytes atomic.Int64 // every message payload received

	mu       sync.Mutex
	frames   []frameRecord
	lastSnap uint64
	fresh    []float64      // freshness samples, ms
	sched    *writeSchedule // nil without a writer
}

// dial attaches a client to the bench session and starts its reader.
func dial(addr string, id int) (*wsClient, error) {
	ws, err := server.Dial(fmt.Sprintf("ws://%s/ws?session=bench&w=%d&h=%d", addr, frameW, frameH))
	if err != nil {
		return nil, err
	}
	c := &wsClient{id: id, ws: ws, answers: make(chan answer, 8),
		quit: make(chan struct{}), done: make(chan struct{}), first: make(chan struct{})}
	go c.read()
	return c, nil
}

// close drops the connection and waits for the reader to exit.
func (c *wsClient) close() {
	close(c.quit)
	_ = c.ws.Close() // the reader's ReadMessage error is the exit path
	<-c.done
}

func (c *wsClient) deliver(a answer) {
	select {
	case c.answers <- a:
	case <-c.quit:
	}
}

func (c *wsClient) read() {
	defer close(c.done)
	for {
		op, payload, err := c.ws.ReadMessage()
		if err != nil {
			c.deliver(answer{err: fmt.Errorf("%w: %v", errConn, err)})
			return
		}
		c.bytes.Add(int64(len(payload)))
		if op != server.OpText {
			continue
		}
		metaAt := time.Now()
		var probe struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(payload, &probe); err != nil {
			c.deliver(answer{err: fmt.Errorf("bad server message: %w", err)})
			continue
		}
		switch probe.Type {
		case "error":
			c.deliver(answer{err: fmt.Errorf("server error: %s", probe.Error)})
		case "frame":
			var meta server.FrameMeta
			if err := json.Unmarshal(payload, &meta); err != nil {
				c.deliver(answer{err: fmt.Errorf("bad frame meta: %w", err)})
				continue
			}
			op2, png, err := c.ws.ReadMessage()
			if err != nil {
				c.deliver(answer{err: fmt.Errorf("%w: %v", errConn, err)})
				return
			}
			pngAt := time.Now()
			c.bytes.Add(int64(len(png)))
			if op2 != server.OpBinary {
				c.deliver(answer{err: errors.New("frame meta not followed by PNG")})
				continue
			}
			c.noteFrame(meta, len(png), pngAt)
			c.once.Do(func() { close(c.first) })
			if meta.Token != "" {
				c.deliver(answer{meta: meta, png: png, metaAt: metaAt, pngAt: pngAt})
			}
		}
	}
}

// noteFrame records a frame and, with a writer running, the freshness
// of every write the frame is the first to show this client.
func (c *wsClient) noteFrame(meta server.FrameMeta, pngBytes int, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, frameRecord{at: at, pngBytes: pngBytes, renderNS: meta.RenderNS})
	if meta.Snap <= c.lastSnap {
		return
	}
	if s := c.sched; s != nil {
		for seq := c.lastSnap + 1; seq <= meta.Snap; seq++ {
			if due, ok := s.due(seq); ok {
				c.fresh = append(c.fresh, ms(at.Sub(due)))
			}
		}
	}
	c.lastSnap = meta.Snap
}

// waitFirstFrame waits, under the watchdog, for the frame every client
// receives on attach.
func (c *wsClient) waitFirstFrame() error {
	select {
	case <-c.first:
		return nil
	case <-time.After(watchdog):
		return fmt.Errorf("client %d: %w", c.id, errWatchdog)
	}
}

func (c *wsClient) snap() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSnap
}

// roundTrip sends op and waits, under the watchdog, for the frame that
// echoes its token. Frames answering earlier, timed-out ops are skipped.
func (c *wsClient) roundTrip(op server.ClientOp) (answer, error) {
	b, err := json.Marshal(op)
	if err != nil {
		return answer{}, err
	}
	if err := c.ws.WriteMessage(server.OpText, b); err != nil {
		return answer{}, fmt.Errorf("%w: send: %v", errConn, err)
	}
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	for {
		select {
		case a := <-c.answers:
			if a.err != nil {
				return a, a.err
			}
			if a.meta.Token == op.Token {
				return a, nil
			}
		case <-timer.C:
			return answer{}, errWatchdog
		}
	}
}

// script is a client's seeded op stream: small pans, zooms, elevation
// changes and revisits on a lattice around the home viewport. The zoom
// level of op n comes from blocks of eight ops that each visit every
// level exactly twice, in a seeded order; a step to a neighbouring
// level is sent as a zoom, a longer one as an elevation change, and a
// step that keeps the level as a pan or a revisit. So every run spends
// the same share of ops at each level whatever the seed, and the cost
// mix of a run does not drift with the walk. Every coordinate is a
// multiple of a power of two, so relative ops land on exactly
// representable viewports and revisits repeat viewports bit for bit,
// which keeps the oracle's reference renders few.
type script struct {
	rng     *rand.Rand
	i, j, l int   // lattice position (-3..3, -3..3) and zoom level 0..3
	block   []int // levels still to visit in the current block
	history [4][]viewport
}

const latticeStep = 0.5 // canvas units per pan

func newScript(seed int64, client int) *script {
	return &script{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), l: 3}
}

func (s *script) view() viewport {
	return viewport{X: homeX + float64(s.i)*latticeStep, Y: homeY + float64(s.j)*latticeStep,
		Elev: float64(int(2) << s.l)}
}

// next returns the next op and the viewport it leads to.
func (s *script) next() (server.ClientOp, viewport) {
	if len(s.block) == 0 {
		s.block = []int{0, 0, 1, 1, 2, 2, 3, 3}
		s.rng.Shuffle(len(s.block), func(a, b int) { s.block[a], s.block[b] = s.block[b], s.block[a] })
	}
	to := s.block[0]
	s.block = s.block[1:]
	var op server.ClientOp
	switch d := to - s.l; {
	case d == 1 || d == -1:
		s.l = to
		op = server.ClientOp{Op: "zoom", Factor: map[int]float64{1: 2, -1: 0.5}[d]}
	case d != 0:
		s.l = to
		op = server.ClientOp{Op: "elev", Elev: s.view().Elev}
	case len(s.history[to]) > 0 && s.rng.Intn(5) < 2: // revisit
		vp := s.history[to][s.rng.Intn(len(s.history[to]))]
		s.i = int((vp.X - homeX) / latticeStep)
		s.j = int((vp.Y - homeY) / latticeStep)
		op = server.ClientOp{Op: "view", X: vp.X, Y: vp.Y, Elev: vp.Elev}
	default: // pan one step, reflecting at the lattice edge
		di, dj := 0, 0
		if s.rng.Intn(2) == 0 {
			di = 1 - 2*s.rng.Intn(2)
		} else {
			dj = 1 - 2*s.rng.Intn(2)
		}
		if s.i+di < -3 || s.i+di > 3 {
			di = -di
		}
		if s.j+dj < -3 || s.j+dj > 3 {
			dj = -dj
		}
		s.i, s.j = s.i+di, s.j+dj
		op = server.ClientOp{Op: "pan", DX: float64(di) * latticeStep, DY: float64(dj) * latticeStep}
	}
	vp := s.view()
	if h := s.history[s.l]; len(h) < 8 {
		s.history[s.l] = append(h, vp)
	} else {
		h[s.rng.Intn(len(h))] = vp
	}
	return op, vp
}

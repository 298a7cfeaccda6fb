package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/raster"
	"repro/internal/viewer"
)

// client is one attached WebSocket connection: its own viewer (pan,
// zoom, elevation, framebuffer size) over the session's shared program.
// All sends originate from the run loop goroutine or, for gens
// broadcasts, from the event pump; WSConn serializes writers and
// WritePair keeps each FrameMeta adjacent to its PNG.
type client struct {
	id      string
	session *Session
	ws      *WSConn
	viewer  *viewer.Viewer

	// dirty carries the newest pending invalidation; capacity 1 with
	// drop-oldest semantics coalesces bursts into one re-render.
	dirty chan GensMsg

	frameSeq int64  // run-loop goroutine only
	shown    uint64 // snapshot of the newest frame rendered; run-loop goroutine only
}

// frame is one rendered payload: the meta message and the PNG it
// announces.
type frame struct {
	meta FrameMeta
	png  []byte
}

// run drives the client until its connection closes or ctx is
// cancelled: decode ops, apply them to the viewer, render, push frames,
// and re-render on invalidation. It owns frameSeq and shown and is the
// only goroutine that sends frames on this connection.
func (c *client) run(ctx context.Context) error {
	ops := make(chan ClientOp, 16)
	readErr := make(chan error, 1)
	go c.readLoop(ctx, ops, readErr)

	// Initial frame: every client starts with a picture in hand.
	if err := c.renderAndSend(ctx, ""); err != nil {
		c.sendError(err)
	}
	return c.serve(ctx, ops, readErr)
}

// serve is run's loop. A queued op goes before a pending push: the
// op's frame renders the newest pinned snapshot, so it shows whatever
// the push would have, and the push is then dropped as covered. Only
// an idle client renders pushes, each announced by its gens message.
func (c *client) serve(ctx context.Context, ops <-chan ClientOp, readErr <-chan error) error {
	for {
		select {
		case op := <-ops:
			c.handleOp(ctx, op)
			continue
		default:
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-readErr:
			if err == io.EOF {
				return nil
			}
			return err
		case op := <-ops:
			c.handleOp(ctx, op)
		case msg := <-c.dirty:
			if msg.Snap <= c.shown {
				continue // a frame at or past msg.Snap already went out
			}
			if err := c.sendJSON(msg); err != nil {
				return err
			}
			if err := c.renderAndSend(ctx, ""); err != nil {
				c.sendError(err)
			}
		}
	}
}

// readLoop decodes client ops off the wire and feeds them to run.
func (c *client) readLoop(ctx context.Context, ops chan<- ClientOp, readErr chan<- error) {
	for {
		op, payload, err := c.ws.ReadMessage()
		if err != nil {
			readErr <- err
			return
		}
		if op != OpText {
			continue
		}
		var cop ClientOp
		if err := json.Unmarshal(payload, &cop); err != nil {
			c.sendError(fmt.Errorf("server: bad op: %w", err))
			continue
		}
		select {
		case ops <- cop:
		case <-ctx.Done():
			return
		}
	}
}

// handleOp applies one viewer operation and pushes the resulting frame.
func (c *client) handleOp(ctx context.Context, op ClientOp) {
	obs.Inc(obs.ServerOps)
	ctx, sp := obs.StartSpanCtx(ctx, obs.SpanServerOp, "op", op.Op, "client", c.id)
	defer sp.End()
	s := c.session
	if op.Op == "update" {
		// Database write, not a viewer op: runs against the pinned
		// snapshot without the session lock (the write path takes the
		// database's own lock; the committed event comes back through
		// the pump and re-renders every client, this one included).
		if err := s.updateField(s.src.current(), op.Table, op.Row, op.Col, op.Input); err != nil {
			c.sendError(err)
			return
		}
		_ = c.sendJSON(AckMsg{Type: "ack", Op: op.Op, Token: op.Token})
		return
	}
	s.mu.RLock()
	err := c.applyOp(op)
	var f *frame
	if err == nil {
		f, err = c.renderLocked(ctx, op.Token)
	}
	s.mu.RUnlock()
	if err != nil {
		c.sendError(err)
		return
	}
	if err := c.sendFrame(f); err != nil {
		_ = c.ws.Close()
	}
}

// applyOp mutates this client's view state. Pan and zoom may demand the
// program (viewer state is created lazily from the display group), so
// the caller holds the session read lock.
func (c *client) applyOp(op ClientOp) error {
	v := c.viewer
	switch op.Op {
	case "pan":
		return v.Pan(op.Member, op.DX, op.DY)
	case "panTo":
		return v.PanTo(op.Member, op.X, op.Y)
	case "zoom":
		return v.Zoom(op.Member, op.Factor)
	case "elev":
		return v.SetElevation(op.Member, op.Elev)
	case "view":
		if err := v.PanTo(op.Member, op.X, op.Y); err != nil {
			return err
		}
		return v.SetElevation(op.Member, op.Elev)
	case "resize":
		if op.W <= 0 || op.H <= 0 || op.W > 4096 || op.H > 4096 {
			return fmt.Errorf("server: bad resize %dx%d", op.W, op.H)
		}
		v.W, v.H = op.W, op.H
		return nil
	case "render":
		return nil
	default:
		return fmt.Errorf("server: unknown op %q", op.Op)
	}
}

// renderAndSend renders under the session read lock and pushes the
// frame after releasing it.
func (c *client) renderAndSend(ctx context.Context, token string) error {
	c.session.mu.RLock()
	f, err := c.renderLocked(ctx, token)
	c.session.mu.RUnlock()
	if err != nil {
		return err
	}
	return c.sendFrame(f)
}

// renderLocked paints one frame against the pinned snapshot. Caller
// holds the session read lock, so the snapshot — and therefore the
// generation vector stamped into the meta — cannot advance mid-frame.
func (c *client) renderLocked(ctx context.Context, token string) (*frame, error) {
	ctx, tc := obs.EnsureTrace(ctx, "serve:"+c.session.Name+"/"+c.id)
	ctx, sp := obs.StartSpanCtx(ctx, obs.SpanServerFrame, "session", c.session.Name, "client", c.id)
	defer sp.End()
	snap := c.session.src.current()
	start := time.Now()
	img := raster.NewImage(c.viewer.W, c.viewer.H)
	if _, err := c.viewer.RenderIntoCtx(ctx, img); err != nil {
		return nil, err
	}
	renderNS := time.Since(start)
	var buf bytes.Buffer
	if err := img.WritePNG(&buf); err != nil {
		return nil, err
	}
	encodeNS := time.Since(start) - renderNS
	c.frameSeq++
	c.shown = snap.Seq()
	meta := FrameMeta{
		Type:     "frame",
		Seq:      c.frameSeq,
		Token:    token,
		W:        c.viewer.W,
		H:        c.viewer.H,
		Viewport: c.viewport(),
		Gens:     snap.Generations(),
		Snap:     snap.Seq(),
		RenderNS: renderNS.Nanoseconds(),
		EncodeNS: encodeNS.Nanoseconds(),
		PNGBytes: buf.Len(),
	}
	if tc != nil {
		meta.TraceID = tc.TraceID
	}
	obs.Inc(obs.ServerFrames)
	obs.Add(obs.ServerFrameBytes, int64(buf.Len()))
	obs.Observe(obs.ServerFrameNS, renderNS+encodeNS)
	return &frame{meta: meta, png: buf.Bytes()}, nil
}

// viewport reports member 0's view state; renderLocked runs after a
// render, so states exist whenever the display group is non-empty.
func (c *client) viewport() Viewport {
	states := c.viewer.States()
	if len(states) == 0 {
		return Viewport{}
	}
	return Viewport{CX: states[0].Center.X, CY: states[0].Center.Y, Elev: states[0].Elevation}
}

// invalidate hands the client the newest generation vector, replacing
// any undelivered one.
func (c *client) invalidate(msg GensMsg) {
	for {
		select {
		case c.dirty <- msg:
			return
		default:
			select {
			case <-c.dirty:
			default:
			}
		}
	}
}

func (c *client) sendFrame(f *frame) error {
	mb, err := json.Marshal(f.meta)
	if err != nil {
		return err
	}
	return c.ws.WritePair(OpText, mb, OpBinary, f.png)
}

func (c *client) sendJSON(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.ws.WriteMessage(OpText, b)
}

func (c *client) sendError(err error) {
	msg := ErrorMsg{Type: "error", Error: err.Error()}
	if errors.Is(err, db.ErrSnapshotStale) {
		msg.Code = ErrorCodeStale
	}
	_ = c.sendJSON(msg)
}

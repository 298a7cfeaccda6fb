package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/types"
)

// newTestServer seeds a database, builds one "weather" Figure 7
// session, and serves it on a free port.
func newTestServer(t *testing.T, stations, perStation int, seed int64) (*Server, *db.Database, string) {
	t.Helper()
	database, err := core.SeedDatabase(stations, perStation, seed)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(database)
	if _, err := srv.AddSession("weather", core.Figure7); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, database, addr
}

// recvFrame is one frame as received: meta plus the PNG that followed.
type recvFrame struct {
	meta FrameMeta
	png  []byte
}

// testClient drives one WebSocket connection from the test goroutine.
type testClient struct {
	t       *testing.T
	ws      *WSConn
	hello   Hello
	frames  []recvFrame
	gens    []GensMsg
	errs    []string
	errMsgs []ErrorMsg
	acks    []AckMsg
}

func attachClient(t *testing.T, addr string, w, h int) *testClient {
	t.Helper()
	url := fmt.Sprintf("ws://%s/ws?session=weather&w=%d&h=%d", addr, w, h)
	ws, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	c := &testClient{t: t, ws: ws}
	op, payload, err := c.readRaw(5 * time.Second)
	if err != nil || op != OpText {
		t.Fatalf("reading hello: op=%d err=%v", op, err)
	}
	if err := json.Unmarshal(payload, &c.hello); err != nil || c.hello.Type != "hello" {
		t.Fatalf("bad hello %q: %v", payload, err)
	}
	return c
}

func (c *testClient) readRaw(timeout time.Duration) (byte, []byte, error) {
	_ = c.ws.c.SetReadDeadline(time.Now().Add(timeout))
	defer c.ws.c.SetReadDeadline(time.Time{})
	return c.ws.ReadMessage()
}

// readOne consumes one server message, stashing frames, gens, and
// errors. Returns false on EOF/timeout.
func (c *testClient) readOne(timeout time.Duration) bool {
	op, payload, err := c.readRaw(timeout)
	if err != nil {
		return false
	}
	if op != OpText {
		c.t.Errorf("unexpected binary message outside a frame pair")
		return true
	}
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(payload, &probe); err != nil {
		c.t.Errorf("bad server message %q: %v", payload, err)
		return true
	}
	switch probe.Type {
	case "frame":
		var meta FrameMeta
		if err := json.Unmarshal(payload, &meta); err != nil {
			c.t.Errorf("bad frame meta: %v", err)
			return true
		}
		op2, png, err := c.readRaw(timeout)
		if err != nil || op2 != OpBinary {
			c.t.Errorf("frame meta not followed by binary PNG: op=%d err=%v", op2, err)
			return false
		}
		if len(png) != meta.PNGBytes {
			c.t.Errorf("frame advertises %d bytes, got %d", meta.PNGBytes, len(png))
		}
		c.frames = append(c.frames, recvFrame{meta: meta, png: png})
	case "gens":
		var g GensMsg
		if err := json.Unmarshal(payload, &g); err == nil {
			c.gens = append(c.gens, g)
		}
	case "error":
		var e ErrorMsg
		if err := json.Unmarshal(payload, &e); err == nil {
			c.errs = append(c.errs, e.Error)
			c.errMsgs = append(c.errMsgs, e)
		}
	case "ack":
		var a AckMsg
		if err := json.Unmarshal(payload, &a); err == nil {
			c.acks = append(c.acks, a)
		}
	default:
		c.t.Errorf("unknown server message type %q", probe.Type)
	}
	return true
}

func (c *testClient) send(op ClientOp) {
	c.t.Helper()
	b, err := json.Marshal(op)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := c.ws.WriteMessage(OpText, b); err != nil {
		c.t.Fatalf("send %s: %v", op.Op, err)
	}
}

// waitFrameToken reads until the frame echoing token arrives.
func (c *testClient) waitFrameToken(token string, timeout time.Duration) *recvFrame {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i := range c.frames {
			if c.frames[i].meta.Token == token {
				return &c.frames[i]
			}
		}
		if !c.readOne(time.Until(deadline)) {
			break
		}
	}
	c.t.Fatalf("no frame with token %q within %v (frames=%d errs=%v)",
		token, timeout, len(c.frames), c.errs)
	return nil
}

func TestHTTPEndpoints(t *testing.T) {
	_, _, addr := newTestServer(t, 8, 6, 1)
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	code, body := get("/sessions")
	if code != 200 || !strings.Contains(body, `"weather"`) {
		t.Fatalf("/sessions: %d %q", code, body)
	}
	if !strings.Contains(body, `"Stations"`) {
		t.Fatalf("/sessions missing generation vector: %q", body)
	}
	if code, _ := get("/telemetry/snapshot"); code != 200 {
		t.Fatalf("/telemetry/snapshot: %d", code)
	}
}

func TestHelloAndTokenedRender(t *testing.T) {
	_, _, addr := newTestServer(t, 8, 6, 1)
	c := attachClient(t, addr, 320, 240)
	if c.hello.Session != "weather" || c.hello.W != 320 || c.hello.H != 240 {
		t.Fatalf("hello = %+v", c.hello)
	}
	if c.hello.Gens["Stations"] == 0 || c.hello.Gens["LouisianaMap"] == 0 {
		t.Fatalf("hello generations missing tables: %v", c.hello.Gens)
	}
	c.send(ClientOp{Op: "render", Token: "t1"})
	f := c.waitFrameToken("t1", 10*time.Second)
	if f.meta.W != 320 || f.meta.H != 240 || len(f.png) == 0 {
		t.Fatalf("frame meta = %+v, png %d bytes", f.meta, len(f.png))
	}
	if f.meta.Gens["Stations"] != c.hello.Gens["Stations"] {
		t.Fatalf("frame gens %v != hello gens %v", f.meta.Gens, c.hello.Gens)
	}
	// Pan moves the viewport reported in the meta.
	c.send(ClientOp{Op: "view", X: -91, Y: 30.5, Elev: 1.5, Token: "t2"})
	f2 := c.waitFrameToken("t2", 10*time.Second)
	if f2.meta.Viewport.CX != -91 || f2.meta.Viewport.CY != 30.5 || f2.meta.Viewport.Elev != 1.5 {
		t.Fatalf("viewport = %+v", f2.meta.Viewport)
	}
}

func TestWriteTriggersPush(t *testing.T) {
	_, database, addr := newTestServer(t, 8, 6, 1)
	c := attachClient(t, addr, 320, 240)
	c.send(ClientOp{Op: "render", Token: "t1"})
	c.waitFrameToken("t1", 10*time.Second)
	before := c.hello.Gens["Stations"]

	if err := database.UpdateTuple("Stations", 0, "altitude", types.NewFloat(999)); err != nil {
		t.Fatal(err)
	}

	// The push arrives unprompted: a gens message, then a fresh frame
	// rendered against the advanced snapshot.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if n := len(c.frames); n > 0 && c.frames[n-1].meta.Gens["Stations"] > before {
			if len(c.gens) == 0 {
				t.Fatal("frame pushed without a gens announcement")
			}
			return
		}
		if !c.readOne(time.Until(deadline)) {
			break
		}
	}
	t.Fatalf("no pushed frame after write: frames=%d gens=%d", len(c.frames), len(c.gens))
}

func TestUnknownOpReportsError(t *testing.T) {
	_, _, addr := newTestServer(t, 8, 6, 1)
	c := attachClient(t, addr, 320, 240)
	c.send(ClientOp{Op: "explode"})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.errs) > 0 {
			if !strings.Contains(c.errs[0], "unknown op") {
				t.Fatalf("error = %q", c.errs[0])
			}
			return
		}
		if !c.readOne(time.Until(deadline)) {
			break
		}
	}
	t.Fatal("no error message for unknown op")
}

func TestAttachUnknownSessionRefused(t *testing.T) {
	_, _, addr := newTestServer(t, 8, 6, 1)
	if _, err := Dial("ws://" + addr + "/ws?session=nope"); err == nil {
		t.Fatal("dial to unknown session succeeded")
	}
}

// An op queued beside a pending push is served first, by a frame at the
// pushed snapshot or later, and the push it covers is dropped: no gens
// message and no extra frame. The client loop is driven directly with
// the op and the push both queued before it starts, so the interleaving
// is fixed rather than left to the scheduler.
func TestQueuedOpCoversPendingPush(t *testing.T) {
	srv, database, _ := newTestServer(t, 8, 6, 1)
	sess, _ := srv.Session("weather")
	if err := database.UpdateTuple("Stations", 0, "altitude", types.NewFloat(999)); err != nil {
		t.Fatal(err)
	}
	want := database.Snapshot().Seq()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, seq := sess.Generations(); seq >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never applied commit %d", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	gens, seq := sess.Generations()

	ops := make(chan ClientOp, 2)
	ops <- ClientOp{Op: "render", Token: "q"}
	ctx, cancel := context.WithCancel(context.Background())
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		c := sess.attach(ctx, ws, 200, 150)
		defer sess.detach(c)
		c.invalidate(GensMsg{Type: "gens", Gens: gens, Snap: seq})
		_ = c.serve(ctx, ops, make(chan error))
	}))
	defer hs.Close()
	defer cancel()
	ws, err := Dial(wsURL(hs))
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	c := &testClient{t: t, ws: ws}

	if !c.readOne(10*time.Second) || len(c.frames) != 1 {
		t.Fatalf("first message is not a frame: frames=%d gens=%d errs=%v", len(c.frames), len(c.gens), c.errs)
	}
	if f := c.frames[0].meta; f.Token != "q" || f.Snap < want {
		t.Fatalf("first frame token %q at snap %d, want the op's frame at snap >= %d", f.Token, f.Snap, want)
	}
	// The next message answers the next op: the covered push never went out.
	ops <- ClientOp{Op: "render", Token: "r"}
	if !c.readOne(10*time.Second) || len(c.frames) != 2 || c.frames[1].meta.Token != "r" || len(c.gens) != 0 {
		t.Fatalf("covered push was sent: frames=%d gens=%d", len(c.frames), len(c.gens))
	}
}

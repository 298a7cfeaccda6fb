package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoServer upgrades and echoes every message back with opcode intact.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		for {
			op, payload, err := ws.ReadMessage()
			if err != nil {
				return
			}
			if err := ws.WriteMessage(op, payload); err != nil {
				return
			}
		}
	}))
}

func wsURL(srv *httptest.Server) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http")
}

func TestWSEchoRoundTrip(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	ws, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	// Small (7-bit length), medium (16-bit), and large (64-bit) payloads
	// exercise all three header encodings, masked both ways.
	// The largest is the server's read cap, which the 64-bit form encodes.
	sizes := []int{0, 1, 125, 126, 4096, 65535, maxServerRead}
	for _, n := range sizes {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i * 31)
		}
		if err := ws.WriteMessage(OpBinary, msg); err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
		op, got, err := ws.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", n, err)
		}
		if op != OpBinary || !bytes.Equal(got, msg) {
			t.Fatalf("echo %d bytes: op=%d len=%d", n, op, len(got))
		}
	}
	if err := ws.WriteMessage(OpText, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	op, got, err := ws.ReadMessage()
	if err != nil || op != OpText || string(got) != "hello" {
		t.Fatalf("text echo: op=%d got=%q err=%v", op, got, err)
	}
}

func TestWSPingHandledTransparently(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	ws, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	// The server's read loop must answer the ping itself; the next real
	// message still round-trips.
	if err := ws.WriteMessage(opPing, []byte("are you there")); err != nil {
		t.Fatal(err)
	}
	if err := ws.WriteMessage(OpText, []byte("after ping")); err != nil {
		t.Fatal(err)
	}
	op, got, err := ws.ReadMessage()
	if err != nil || op != OpText || string(got) != "after ping" {
		t.Fatalf("after ping: op=%d got=%q err=%v", op, got, err)
	}
}

func TestWSCloseHandshake(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	ws, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.ReadMessage(); err == nil {
		t.Fatal("read after close should fail")
	}
}

// notifyConn closes wrote when the first write starts.
type notifyConn struct {
	net.Conn
	once  sync.Once
	wrote chan struct{}
}

func (c *notifyConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.wrote) })
	return c.Conn.Write(p)
}

// A write to a peer that never reads blocks holding the write lock.
// Close from another goroutine must still return promptly, and the
// blocked write must fail rather than wait for the peer.
func TestWSCloseDoesNotWaitOnStuckWrite(t *testing.T) {
	conn, peer := net.Pipe() // nothing ever reads peer
	defer peer.Close()
	nc := &notifyConn{Conn: conn, wrote: make(chan struct{})}
	ws := &WSConn{c: nc, br: bufio.NewReader(conn)}
	writeErr := make(chan error, 1)
	go func() {
		writeErr <- ws.WritePair(OpText, []byte("meta"), OpBinary, make([]byte, 1<<20))
	}()
	<-nc.wrote

	closed := make(chan struct{})
	go func() {
		_ = ws.Close() // only whether Close returns is under test
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close waited behind a write to a peer that never reads")
	}
	select {
	case err := <-writeErr:
		if err == nil {
			t.Fatal("write to a peer that never reads succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("blocked write did not return after Close")
	}
}

// An idle connection whose peer never reads: Close's own close frame
// must not wait out writeTimeout.
func TestWSCloseIdleUnreadPeerIsBounded(t *testing.T) {
	conn, peer := net.Pipe() // nothing ever reads peer
	defer peer.Close()
	ws := &WSConn{c: conn, br: bufio.NewReader(conn)}
	closed := make(chan struct{})
	go func() {
		_ = ws.Close() // only whether Close returns is under test
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close of an idle connection waited on a peer that never reads")
	}
}

func TestWSWritePairStaysAdjacent(t *testing.T) {
	// A server goroutine hammers standalone messages while the main
	// goroutine sends meta/payload pairs; every pair must arrive with
	// its halves adjacent.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				if ws.WriteMessage(OpText, []byte("noise")) != nil {
					return
				}
			}
		}()
		for i := 0; i < 50; i++ {
			if ws.WritePair(OpText, []byte("meta"), OpBinary, []byte("payload")) != nil {
				break
			}
		}
		<-done
		ws.WriteMessage(OpText, []byte("done"))
		// Hold the connection until the client has read everything.
		ws.ReadMessage()
	}))
	defer srv.Close()
	ws, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	pairs := 0
	for {
		op, payload, err := ws.ReadMessage()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if op == OpText && string(payload) == "done" {
			break
		}
		if op == OpText && string(payload) == "meta" {
			op2, p2, err := ws.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			if op2 != OpBinary || string(p2) != "payload" {
				t.Fatalf("pair split: next message op=%d %q", op2, p2)
			}
			pairs++
		}
	}
	if pairs != 50 {
		t.Fatalf("got %d intact pairs, want 50", pairs)
	}
}

func TestUpgradeRejectsPlainGET(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Error("Upgrade accepted a plain GET")
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestAcceptKey(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("acceptKey = %q, want %q", got, want)
	}
}

// binaryFrame encodes one unfragmented binary frame header declaring n
// payload bytes in the 64-bit length form, followed by payload. Masked
// frames carry a zero key, so payload goes on the wire as is.
func binaryFrame(n uint64, masked bool, payload []byte) *bufio.Reader {
	f := []byte{0x80 | OpBinary, 127}
	if masked {
		f[1] |= 0x80
	}
	f = binary.BigEndian.AppendUint64(f, n)
	if masked {
		f = append(f, 0, 0, 0, 0)
	}
	return bufio.NewReader(bytes.NewReader(append(f, payload...)))
}

// The server reads at most maxServerRead bytes per message: a header
// declaring 1 GiB is a protocol error before any payload buffer is
// allocated, and so is a message one byte over the cap. The client side
// keeps the larger maxWSPayload bound for canvas frames.
func TestWSServerReadCap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := (&WSConn{br: binaryFrame(1<<30, true, nil)}).ReadMessage()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("1 GiB frame header: err = %v, want ErrProtocol", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("1 GiB frame header allocated %d bytes before failing", grew)
	}

	over := make([]byte, maxServerRead+1)
	if _, _, err := (&WSConn{br: binaryFrame(uint64(len(over)), true, over)}).ReadMessage(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("server read past the cap: err = %v, want ErrProtocol", err)
	}
	_, got, err := (&WSConn{br: binaryFrame(uint64(len(over)), false, over), client: true}).ReadMessage()
	if err != nil || len(got) != len(over) {
		t.Fatalf("client read of %d bytes: got %d, err %v", len(over), len(got), err)
	}

	rsv := bufio.NewReader(bytes.NewReader([]byte{0xC0 | OpBinary, 0x80, 0, 0, 0, 0}))
	if _, _, err := (&WSConn{br: rsv}).ReadMessage(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("reserved bits: err = %v, want ErrProtocol", err)
	}
}

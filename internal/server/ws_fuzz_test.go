package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// discardConn accepts and drops every write: the reader under test
// answers pings and echoes close frames.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzWSServerRead reads arbitrary bytes as a server-side connection's
// incoming stream. Reading must not panic, every error must be a
// protocol error or an EOF from truncated input, no message may exceed
// maxServerRead, and a frame header must never buy an allocation larger
// than the cap: the run allocates no more than one capped payload plus a
// small multiple of the input.
func FuzzWSServerRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ws := &WSConn{c: discardConn{}, br: bufio.NewReader(bytes.NewReader(data))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			_, payload, err := ws.ReadMessage()
			if err != nil {
				if !errors.Is(err, ErrProtocol) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("error %v is neither ErrProtocol nor EOF", err)
				}
				break
			}
			if len(payload) > maxServerRead {
				t.Fatalf("read a %d-byte message past the %d-byte cap", len(payload), maxServerRead)
			}
		}
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*maxServerRead+16*len(data)+1<<20); grew > bound {
			t.Fatalf("%d input bytes allocated %d bytes (bound %d)", len(data), grew, bound)
		}
	})
}

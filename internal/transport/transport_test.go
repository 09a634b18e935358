package transport

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"stardust"
	"stardust/internal/wal"
	"stardust/internal/wire"
)

// startServer runs a transport server over a loopback listener and returns
// its address plus a shutdown func that blocks until Serve returns.
func startServer(t *testing.T, cfg Config) (string, *Server, func()) {
	t.Helper()
	if cfg.Backend == nil {
		m, err := stardust.New(stardust.Config{Streams: 4, W: 8, Levels: 3})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backend = stardust.NewSafeWatcher(m)
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	t.Cleanup(shutdown)
	return ln.Addr().String(), srv, shutdown
}

// conn is a raw protocol client for driving the server byte-by-byte.
type conn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &conn{t: t, c: c, br: bufio.NewReader(c)}
}

func (c *conn) write(raw []byte) {
	c.t.Helper()
	c.c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.c.Write(raw); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

func (c *conn) read() (wire.Frame, error) {
	c.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, _, err := wire.ReadFrame(c.br, 0)
	return f, err
}

func (c *conn) mustRead() wire.Frame {
	c.t.Helper()
	f, err := c.read()
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	return f
}

// handshake performs the Hello/HelloAck exchange.
func (c *conn) handshake() wire.Frame {
	c.t.Helper()
	c.write(wire.AppendHello(nil, wire.Version))
	f := c.mustRead()
	if f.Type != wire.TypeHelloAck {
		c.t.Fatalf("handshake reply type 0x%02x, want HelloAck", f.Type)
	}
	return f
}

// expectClosed asserts the server has hung up: the next read returns EOF.
func (c *conn) expectClosed() {
	c.t.Helper()
	if f, err := c.read(); err == nil {
		c.t.Fatalf("connection still open, read frame %+v", f)
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		c.t.Fatalf("close err = %v, want EOF", err)
	}
}

func TestIngestAckAndStats(t *testing.T) {
	addr, srv, _ := startServer(t, Config{})
	c := dialRaw(t, addr)
	if ack := c.handshake(); ack.Streams != 4 {
		t.Fatalf("advertised %d streams, want 4", ack.Streams)
	}

	c.write(wire.AppendIngest(nil, 1, 0, []float64{1.5}))
	if f := c.mustRead(); f.Type != wire.TypeAck || f.Seq != 1 || f.Samples != 1 {
		t.Fatalf("single ingest reply %+v", f)
	}
	c.write(wire.AppendIngest(nil, 2, 1, []float64{1, 2, 3, 4}))
	if f := c.mustRead(); f.Type != wire.TypeAck || f.Seq != 2 || f.Samples != 4 {
		t.Fatalf("batch ingest reply %+v", f)
	}
	c.write(wire.AppendStats(nil, 3))
	f := c.mustRead()
	if f.Type != wire.TypeStatsReply || f.Seq != 3 || len(f.Blob) == 0 {
		t.Fatalf("stats reply %+v", f)
	}

	m := srv.Metrics().Snapshot()
	if m.Samples != 5 || m.Acks != 2 || m.Nacks != 0 || m.Handshakes != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if m.FramesIn != 4 || m.FramesOut != 4 || m.BytesIn == 0 || m.BytesOut == 0 {
		t.Fatalf("frame accounting %+v", m)
	}
}

func TestGuardNacksKeepConnectionOpen(t *testing.T) {
	addr, _, _ := startServer(t, Config{})
	c := dialRaw(t, addr)
	c.handshake()

	c.write(wire.AppendIngest(nil, 1, 0, []float64{math.NaN()}))
	if f := c.mustRead(); f.Type != wire.TypeNack || f.Code != wire.CodeBadValue {
		t.Fatalf("NaN reply %+v", f)
	}
	c.write(wire.AppendIngest(nil, 2, 99, []float64{1}))
	if f := c.mustRead(); f.Type != wire.TypeNack || f.Code != wire.CodeStreamRange {
		t.Fatalf("range reply %+v", f)
	}
	// The connection survives guard rejections: a good ingest still lands.
	c.write(wire.AppendIngest(nil, 3, 0, []float64{1}))
	if f := c.mustRead(); f.Type != wire.TypeAck || f.Seq != 3 {
		t.Fatalf("post-nack ingest reply %+v", f)
	}
}

func TestReadOnlyNack(t *testing.T) {
	addr, _, _ := startServer(t, Config{ReadOnly: func() bool { return true }})
	c := dialRaw(t, addr)
	c.handshake()
	c.write(wire.AppendIngest(nil, 1, 0, []float64{1}))
	if f := c.mustRead(); f.Type != wire.TypeNack || f.Code != wire.CodeReadOnly {
		t.Fatalf("read-only reply %+v", f)
	}
	// Stats still work on a replica.
	c.write(wire.AppendStats(nil, 2))
	if f := c.mustRead(); f.Type != wire.TypeStatsReply {
		t.Fatalf("replica stats reply %+v", f)
	}
}

// TestMalformedClients drives every flavor of bad input at the server: each
// must draw a nack (where there is anything to answer) and a clean close —
// never a panic, never a hang. Run under -race in CI.
func TestMalformedClients(t *testing.T) {
	cases := []struct {
		name      string
		preamble  bool // complete the handshake first
		raw       []byte
		wantCode  byte // 0 = no nack expected, just close
		halfClose bool // shut the write side after raw (client vanished)
	}{
		{name: "garbage-first-frame", raw: []byte("GET / HTTP/1.1\r\n\r\n")},
		{name: "wrong-first-type", raw: wire.AppendIngest(nil, 1, 0, []float64{1}), wantCode: wire.CodeProto},
		{name: "version-mismatch", raw: wire.AppendHello(nil, 99), wantCode: wire.CodeVersion},
		{name: "bad-magic", raw: func() []byte {
			raw := wire.AppendHello(nil, wire.Version)
			// Rewrite the magic in place without re-checksumming: CRC fails.
			copy(raw[9:], "XXXX")
			return raw
		}(), wantCode: wire.CodeProto},
		{name: "zero-length-frame", preamble: true, raw: make([]byte, 8), wantCode: wire.CodeProto},
		{name: "oversized-frame", preamble: true,
			raw: []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, wantCode: wire.CodeProto},
		{name: "bad-crc", preamble: true, raw: func() []byte {
			raw := wire.AppendIngest(nil, 1, 0, []float64{1})
			raw[len(raw)-1] ^= 0xff
			return raw
		}(), wantCode: wire.CodeProto},
		{name: "truncated-ingest", preamble: true,
			raw: wire.AppendIngest(nil, 1, 0, []float64{1, 2, 3})[:11], halfClose: true},
		{name: "unknown-frame-type", preamble: true,
			// Correctly framed, but the type byte is outside the protocol.
			raw: wal.EncodeFrame(nil, []byte{0x7f, 1, 2}), wantCode: wire.CodeProto},
		{name: "server-to-client-type", preamble: true,
			raw: wire.AppendAck(nil, 1, 1), wantCode: wire.CodeProto},
		{name: "second-hello", preamble: true,
			raw: wire.AppendHello(nil, wire.Version), wantCode: wire.CodeProto},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, _, _ := startServer(t, Config{})
			c := dialRaw(t, addr)
			if tc.preamble {
				c.handshake()
			}
			c.write(tc.raw)
			if tc.halfClose {
				c.c.(*net.TCPConn).CloseWrite()
			}
			if tc.wantCode != 0 {
				f, err := c.read()
				if err != nil {
					t.Fatalf("expected nack code %d, got read error %v", tc.wantCode, err)
				}
				if f.Type != wire.TypeNack || f.Code != tc.wantCode {
					t.Fatalf("reply %+v, want nack code %d", f, tc.wantCode)
				}
				c.expectClosed()
				return
			}
			// No particular nack required — but the server must close, and
			// any frame it does send first must be a nack.
			for {
				f, err := c.read()
				if err != nil {
					return // closed cleanly
				}
				if f.Type != wire.TypeNack {
					t.Fatalf("non-nack reply %+v to malformed input", f)
				}
			}
		})
	}
}

// TestHangupMidFrame covers the silent close path: a client that dials,
// handshakes, sends half a frame and vanishes must not wedge the server.
func TestHangupMidFrame(t *testing.T) {
	addr, srv, _ := startServer(t, Config{})
	c := dialRaw(t, addr)
	c.handshake()
	c.write(wire.AppendIngest(nil, 1, 0, []float64{1, 2, 3})[:9])
	c.c.Close()
	// The slot must come back so the next client gets served.
	c2 := dialRaw(t, addr)
	c2.handshake()
	c2.write(wire.AppendIngest(nil, 1, 0, []float64{1}))
	if f := c2.mustRead(); f.Type != wire.TypeAck {
		t.Fatalf("follow-up client reply %+v", f)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Snapshot().ConnsOpen > 1 {
		if time.Now().After(deadline) {
			t.Fatal("hung-up connection never released")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMaxConnsBackpressure pins the bounded-accept contract: with one slot,
// a second client's handshake parks in the backlog until the first
// connection ends, and completes after it.
func TestMaxConnsBackpressure(t *testing.T) {
	addr, _, _ := startServer(t, Config{MaxConns: 1})
	c1 := dialRaw(t, addr)
	c1.handshake()

	c2 := dialRaw(t, addr)
	c2.write(wire.AppendHello(nil, wire.Version))
	c2.c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, _, err := wire.ReadFrame(c2.br, 0); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("second client served while slot held (err %v)", err)
	}

	c1.c.Close()
	c2.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, _, err := wire.ReadFrame(c2.br, 0)
	if err != nil {
		t.Fatalf("second client after slot freed: %v", err)
	}
	if f.Type != wire.TypeHelloAck {
		t.Fatalf("second client reply %+v", f)
	}
}

// TestGracefulDrain cancels the serving context while a connection is open:
// Serve must return, and the connection must be torn down.
func TestGracefulDrain(t *testing.T) {
	addr, _, shutdown := startServer(t, Config{ShutdownGrace: 100 * time.Millisecond})
	c := dialRaw(t, addr)
	c.handshake()

	done := make(chan struct{})
	go func() {
		shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	// New dials are refused once the listener is down.
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after shutdown")
	}
	c.expectClosed()
}

// Package transport serves Stardust's binary wire protocol over
// persistent TCP: the connection-oriented ingest tier that sits next to
// the HTTP server and speaks internal/wire frames against the same
// stardust.Interface backend.
//
// The listener applies backpressure by bounded accept — a connection slot
// (Config.MaxConns) must free up before Accept is called again, so excess
// clients queue in the kernel backlog instead of exhausting the process —
// and every connection gets its own read/write buffers, a per-frame read
// deadline, and a handshake that pins the protocol version before any
// sample is admitted. Malformed input (truncated frames, oversized
// frames, checksum failures, out-of-protocol types) is answered with a
// protocol nack and a clean close, never a panic; guard rejections
// (stardust.ErrBadValue and friends) are per-request nacks that leave the
// connection open. Serve drains on context cancellation: the listener
// closes immediately, in-flight connections get a grace period to finish
// their current request, and stragglers are force-closed — the same
// graceful-stop shape the HTTP server follows, so one signal winds down
// both tiers.
package transport

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"stardust"
	"stardust/internal/obs"
	"stardust/internal/wire"
)

// Config tunes a transport Server. Backend is the only required field;
// every zero value selects a documented default.
type Config struct {
	// Backend is the monitor surface ingest frames are applied to.
	Backend stardust.Interface
	// ReadOnly, when non-nil and returning true, makes the server nack
	// every ingest frame with CodeReadOnly — the read-replica stance,
	// matching the HTTP server's 403.
	ReadOnly func() bool
	// MaxConns bounds concurrently served connections (default 256).
	// Accept is not called while the gate is full, so excess dials queue
	// in the kernel backlog.
	MaxConns int
	// MaxFrameBytes bounds one frame's payload (default
	// wire.MaxFrameBytes). Larger frames are nacked and the connection
	// closed.
	MaxFrameBytes int
	// IdleTimeout is the per-frame read deadline: a connection that sends
	// nothing for this long is closed (default 2 minutes).
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response (default 10 seconds).
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the wait for the client's Hello (default 10
	// seconds).
	HandshakeTimeout time.Duration
	// ReadBuffer and WriteBuffer size each connection's bufio buffers
	// (default 64 KiB each).
	ReadBuffer, WriteBuffer int
	// ShutdownGrace bounds how long Serve waits for in-flight
	// connections to finish their current request after cancellation
	// before force-closing them (default 5 seconds).
	ShutdownGrace time.Duration
	// Metrics receives the stardust_net_* instrumentation; nil allocates
	// a private set.
	Metrics *obs.NetMetrics
	// Logf logs connection-level events (default log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = wire.MaxFrameBytes
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.ReadBuffer <= 0 {
		c.ReadBuffer = 64 << 10
	}
	if c.WriteBuffer <= 0 {
		c.WriteBuffer = 64 << 10
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 5 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewNetMetrics()
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the TCP listener for the binary ingest protocol. Construct
// with NewServer and run with Serve; one Server serves one listener.
type Server struct {
	cfg   Config
	slots chan struct{}

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewServer builds a transport server around the backend in cfg.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxConns),
		conns: make(map[net.Conn]struct{}),
	}
}

// Metrics returns the server's instrument set (the one passed in Config,
// or the private set allocated in its place).
func (s *Server) Metrics() *obs.NetMetrics { return s.cfg.Metrics }

// Serve accepts and serves connections on ln until ctx is cancelled, then
// drains: the listener closes immediately, in-flight connections get
// ShutdownGrace to finish their current request, and whatever remains is
// force-closed. The caller owns ln's address; Serve closes the listener.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
		case <-stop:
		}
		ln.Close()
	}()

	var acceptErr error
	for {
		// Bounded accept: block until a connection slot frees before
		// asking the kernel for the next connection.
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		conn, err := ln.Accept()
		if err != nil {
			<-s.slots
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				break
			}
			acceptErr = err
			break
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}

	// Drain: wait out in-flight requests, then cut the stragglers.
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.ShutdownGrace):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return acceptErr
}

// serveConn runs one connection's lifecycle: handshake, then the
// request/response loop until EOF, timeout, protocol error, or shutdown.
func (s *Server) serveConn(conn net.Conn) {
	m := s.cfg.Metrics
	m.ConnsTotal.Inc()
	m.ConnsOpen.Add(1)
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		m.ConnsOpen.Add(-1)
		<-s.slots
		s.wg.Done()
	}()

	br := bufio.NewReaderSize(conn, s.cfg.ReadBuffer)
	bw := bufio.NewWriterSize(conn, s.cfg.WriteBuffer)
	var out []byte // reusable response scratch

	// send counts the frame before any of its bytes can reach the peer, so
	// a client that has read a reply never observes it uncounted; a write
	// or flush error backs the count out again.
	send := func(frame []byte) bool {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		m.FramesOut.Inc()
		m.BytesOut.Add(int64(len(frame)))
		_, err := bw.Write(frame)
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			m.FramesOut.Add(-1)
			m.BytesOut.Add(-int64(len(frame)))
			return false
		}
		return true
	}
	// protoNack reports a connection-fatal protocol violation: one nack,
	// then the deferred close tears the connection down.
	protoNack := func(seq uint64, code byte, msg string) {
		m.Nacks.Inc()
		m.ProtoErrors.Inc()
		send(wire.AppendNack(out[:0], seq, code, msg))
	}

	// Handshake: the first frame must be a well-formed Hello carrying the
	// one protocol version this binary speaks.
	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	hello, n, err := wire.ReadFrame(br, s.cfg.MaxFrameBytes)
	m.BytesIn.Add(int64(n))
	if err != nil {
		if !silentReadError(err) {
			protoNack(0, wire.CodeProto, "expected hello: "+err.Error())
		}
		return
	}
	m.FramesIn.Inc()
	if hello.Type != wire.TypeHello {
		protoNack(0, wire.CodeProto, "expected hello as first frame")
		return
	}
	if hello.Version != wire.Version {
		m.VersionMismatches.Inc()
		m.Nacks.Inc()
		send(wire.AppendNack(out[:0], 0, wire.CodeVersion,
			"server speaks protocol version 1"))
		return
	}
	if !send(wire.AppendHelloAck(out[:0], wire.Version, uint64(s.cfg.Backend.NumStreams()))) {
		return
	}
	m.Handshakes.Inc()

	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		f, n, err := wire.ReadFrame(br, s.cfg.MaxFrameBytes)
		m.BytesIn.Add(int64(n))
		if err != nil {
			if !silentReadError(err) {
				protoNack(0, wire.CodeProto, err.Error())
			}
			return
		}
		m.FramesIn.Inc()
		start := time.Now()
		switch f.Type {
		case wire.TypeIngest:
			if s.cfg.ReadOnly != nil && s.cfg.ReadOnly() {
				m.Nacks.Inc()
				if !send(wire.AppendNack(out[:0], f.Seq, wire.CodeReadOnly,
					"read-only replica: ingest on the primary")) {
					return
				}
				continue
			}
			var ierr error
			switch len(f.Values) {
			case 0:
				// An empty run is a no-op, acked like the in-process batch.
			case 1:
				ierr = s.cfg.Backend.Ingest(int(f.Stream), f.Values[0])
			default:
				ierr = s.cfg.Backend.IngestBatch(int(f.Stream), f.Values)
			}
			if ierr != nil {
				m.Nacks.Inc()
				if !send(wire.AppendNack(out[:0], f.Seq, wire.CodeFor(ierr), ierr.Error())) {
					return
				}
			} else {
				m.Samples.Add(int64(len(f.Values)))
				m.Acks.Inc()
				if !send(wire.AppendAck(out[:0], f.Seq, uint64(len(f.Values)))) {
					return
				}
			}
		case wire.TypeStats:
			blob, jerr := json.Marshal(s.cfg.Backend.Stats())
			if jerr != nil {
				m.Nacks.Inc()
				if !send(wire.AppendNack(out[:0], f.Seq, wire.CodeInternal, jerr.Error())) {
					return
				}
			} else if !send(wire.AppendStatsReply(out[:0], f.Seq, blob)) {
				return
			}
		default:
			// Server-to-client types (or a second hello) arriving here
			// mean the peer is not following the protocol.
			protoNack(f.Seq, wire.CodeProto, "unexpected frame type")
			return
		}
		m.FrameNanos.Observe(float64(time.Since(start).Nanoseconds()))
	}
}

// silentReadError reports read failures that do not merit a protocol
// nack: the peer hung up (cleanly or mid-frame) or went quiet past a
// deadline, so there is either no one to answer or nothing to say.
func silentReadError(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

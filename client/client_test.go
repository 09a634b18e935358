package client_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stardust"
	"stardust/client"
	"stardust/internal/server"
	"stardust/internal/transport"
)

func newBackend(t *testing.T, cfg stardust.Config) *stardust.SafeWatcher {
	t.Helper()
	if cfg.Streams == 0 {
		cfg = stardust.Config{Streams: 4, W: 8, Levels: 3}
	}
	m, err := stardust.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stardust.NewSafeWatcher(m)
}

// startTCP serves the binary protocol for a backend on a loopback listener.
func startTCP(t *testing.T, backend stardust.Interface) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(transport.Config{Backend: backend, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// startHTTP serves the JSON endpoints for a backend.
func startHTTP(t *testing.T, backend stardust.Interface) string {
	t.Helper()
	ts := httptest.NewServer(server.New(backend))
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestNewValidation(t *testing.T) {
	if _, err := client.New(); err == nil {
		t.Fatal("New() without a dial target should fail")
	}
	if _, err := client.New(client.WithHTTP("http://x"), client.WithTCP("y:1")); err == nil {
		t.Fatal("New() with both transports should fail")
	}
}

// dialBoth returns one connected client per transport, each backed by its
// own monitor, so transport behaviors can be asserted side by side.
func dialBoth(t *testing.T) map[string]*client.Client {
	t.Helper()
	clients := make(map[string]*client.Client)
	for name, dial := range map[string]client.Option{
		"http": client.WithHTTP(startHTTP(t, newBackend(t, stardust.Config{}))),
		"tcp":  client.WithTCP(startTCP(t, newBackend(t, stardust.Config{}))),
	} {
		c, err := client.New(dial, client.WithTimeout(5*time.Second))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() { c.Close() })
		clients[name] = c
	}
	return clients
}

func TestIngestAndStatsBothTransports(t *testing.T) {
	for name, c := range dialBoth(t) {
		t.Run(name, func(t *testing.T) {
			if err := c.Ingest(0, 1.5); err != nil {
				t.Fatal(err)
			}
			if err := c.IngestBatch(1, []float64{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			if err := c.IngestBatch(1, nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Streams != 4 {
				t.Fatalf("stats streams = %d, want 4", st.Streams)
			}
			if st.RawHistory == 0 {
				t.Fatal("stats should reflect ingested samples")
			}
		})
	}
}

// TestTypedErrorsBothTransports pins the unified error contract: the same
// errors.Is checks pass whether the rejection crossed HTTP/JSON or the
// binary wire.
func TestTypedErrorsBothTransports(t *testing.T) {
	for name, c := range dialBoth(t) {
		t.Run(name, func(t *testing.T) {
			if err := c.Ingest(0, math.NaN()); !errors.Is(err, stardust.ErrBadValue) {
				t.Fatalf("NaN err = %v, want ErrBadValue", err)
			}
			if err := c.Ingest(99, 1); !errors.Is(err, stardust.ErrStreamRange) {
				t.Fatalf("range err = %v, want ErrStreamRange", err)
			}
			// The connection survives rejections on both transports.
			if err := c.Ingest(0, 2); err != nil {
				t.Fatalf("ingest after rejection: %v", err)
			}
		})
	}
}

// TestQuarantinedOverTCP drives the guard into quarantine through the
// binary wire. TCP only: the JSON transport cannot carry the non-finite
// samples that trip a quarantine (they are rejected client-side).
func TestQuarantinedOverTCP(t *testing.T) {
	cfg := stardust.Config{
		Streams: 2, W: 8, Levels: 3,
		BadValues: stardust.GuardConfig{Policy: stardust.LastValueBad, QuarantineAfter: 2},
	}
	c, err := client.New(client.WithTCP(startTCP(t, newBackend(t, cfg))))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// No history to gap-fill from: consecutive bad values trip the
	// quarantine.
	var last error
	for i := 0; i < 4; i++ {
		last = c.Ingest(0, math.NaN())
	}
	if !errors.Is(last, stardust.ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", last)
	}
}

func TestTCPDialFailures(t *testing.T) {
	// Nothing listening.
	if _, err := client.New(client.WithTCP("127.0.0.1:1"), client.WithTimeout(time.Second)); err == nil {
		t.Fatal("dial to a dead port should fail")
	}
	// A listener that does not speak the protocol (an HTTP server) must be
	// rejected during the handshake, not poison later calls.
	url := startHTTP(t, newBackend(t, stardust.Config{}))
	if _, err := client.New(client.WithTCP(url[len("http://"):]), client.WithTimeout(time.Second)); err == nil {
		t.Fatal("handshake against an HTTP listener should fail")
	}
}

func TestUseAfterClose(t *testing.T) {
	for name, c := range dialBoth(t) {
		t.Run(name, func(t *testing.T) {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if err := c.Ingest(0, 1); err == nil {
				t.Fatal("ingest after Close should fail")
			}
		})
	}
}

func TestConcurrentClients(t *testing.T) {
	backend := newBackend(t, stardust.Config{})
	addr := startTCP(t, backend)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			c, err := client.New(client.WithTCP(addr))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				if err := c.IngestBatch(stream, []float64{1, 2, 3, 4}); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for s := 0; s < 4; s++ {
		if got := backend.Now(s); got != 199 {
			t.Fatalf("stream %d clock = %d, want 199", s, got)
		}
	}
}

// TestSnapshotEquivalenceTCPvsHTTP is the cross-transport integrity pin:
// the same sample sequence pushed through the binary TCP client (batched)
// and through the HTTP/JSON client must leave the two monitors in
// byte-identical snapshot states.
func TestSnapshotEquivalenceTCPvsHTTP(t *testing.T) {
	cfg := stardust.Config{
		Streams: 3, W: 8, Levels: 3, Transform: stardust.DWT,
		Coefficients: 2, Normalization: stardust.NormUnit, Rmax: 100,
		History: 256,
	}
	tcpMon := newBackend(t, cfg)
	httpMon := newBackend(t, cfg)

	tc, err := client.New(client.WithTCP(startTCP(t, tcpMon)))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	hc, err := client.New(client.WithHTTP(startHTTP(t, httpMon)))
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	rng := rand.New(rand.NewSource(42))
	const total, chunk = 500, 64
	data := make([][]float64, cfg.Streams)
	for s := range data {
		data[s] = make([]float64, total)
		for i := range data[s] {
			data[s][i] = rng.Float64() * 100
		}
	}
	for s := 0; s < cfg.Streams; s++ {
		for off := 0; off < total; off += chunk {
			end := off + chunk
			if end > total {
				end = total
			}
			if err := tc.IngestBatch(s, data[s][off:end]); err != nil {
				t.Fatalf("tcp batch: %v", err)
			}
			if err := hc.IngestBatch(s, data[s][off:end]); err != nil {
				t.Fatalf("http batch: %v", err)
			}
		}
	}

	var tcpSnap, httpSnap bytes.Buffer
	if err := tcpMon.Snapshot(&tcpSnap); err != nil {
		t.Fatal(err)
	}
	if err := httpMon.Snapshot(&httpSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tcpSnap.Bytes(), httpSnap.Bytes()) {
		t.Fatalf("snapshots differ: tcp %d bytes, http %d bytes",
			tcpSnap.Len(), httpSnap.Len())
	}
}

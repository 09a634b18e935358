package replication_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stardust"
	"stardust/internal/replication"
	"stardust/internal/server"
)

// e2eConfig is a small summary shape shared by every end-to-end test:
// sum transform so aggregate checks have obvious expected values.
func e2eConfig(streams int) stardust.Config {
	return stardust.Config{Streams: streams, W: 8, Levels: 3}
}

// newPrimaryServer builds a durable monitor, wraps it in an HTTP server
// with the replication endpoints attached, and returns the safe wrapper
// (for test ingestion) plus the server's base URL.
func newPrimaryServer(t *testing.T) (*stardust.SafeWatcher, *stardust.Monitor, string) {
	t.Helper()
	cfg := e2eConfig(4)
	cfg.Durability = stardust.DurabilityConfig{
		Dir:          t.TempDir(),
		Fsync:        stardust.FsyncNone,
		SegmentBytes: 1 << 12, // small segments: trims and boundaries happen
	}
	m, err := stardust.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	sm := stardust.NewSafeWatcher(m)
	srv := server.New(sm)
	srv.AttachPrimary(m.WAL(), nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return sm, m, ts.URL
}

// waitBootstrapped blocks until the follower has installed its bootstrap
// snapshot.
func waitBootstrapped(t *testing.T, f *replication.Follower) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !f.Status().Bootstrapped {
		if time.Now().After(deadline) {
			t.Fatal("follower never bootstrapped")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitConverged blocks until the follower has applied through lastLSN.
func waitConverged(t *testing.T, f *replication.Follower, lastLSN uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if f.Status().AppliedLSN >= lastLSN {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower stuck at LSN %d, want %d", f.Status().AppliedLSN, lastLSN)
}

// snapshotBytes serializes a backend's state.
func snapshotBytes(t *testing.T, s interface{ Snapshot(io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// assertEqualQueries runs one query of each class against both backends
// and requires identical results.
func assertEqualQueries(t *testing.T, got, want stardust.Interface) {
	t.Helper()
	for stream := 0; stream < want.NumStreams(); stream++ {
		ga, gerr := got.CheckAggregate(stream, 16, 100)
		wa, werr := want.CheckAggregate(stream, 16, 100)
		if (gerr != nil) != (werr != nil) || ga != wa {
			t.Fatalf("stream %d aggregate: got %+v (%v), want %+v (%v)", stream, ga, gerr, wa, werr)
		}
	}
	gp, gerr := got.FindPattern([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	wp, werr := want.FindPattern([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	if (gerr != nil) != (werr != nil) || len(gp.Matches) != len(wp.Matches) {
		t.Fatalf("pattern: got %d matches (%v), want %d (%v)", len(gp.Matches), gerr, len(wp.Matches), werr)
	}
	gc, gerr := got.Correlations(1, 0.5)
	wc, werr := want.Correlations(1, 0.5)
	if (gerr != nil) != (werr != nil) || len(gc.Pairs) != len(wc.Pairs) {
		t.Fatalf("correlations: got %d pairs (%v), want %d (%v)", len(gc.Pairs), gerr, len(wc.Pairs), werr)
	}
}

// TestE2EFollowerConvergesByteIdentical is the acceptance-criterion test:
// a follower started from an empty directory converges to a snapshot
// byte-identical to the primary's and answers queries identically.
func TestE2EFollowerConvergesByteIdentical(t *testing.T) {
	sm, m, url := newPrimaryServer(t)

	// Pre-existing history: the follower bootstraps over this via the
	// snapshot endpoint.
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 4; s++ {
		vals := make([]float64, 200)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
		}
		if err := sm.IngestBatch(s, vals); err != nil {
			t.Fatalf("IngestBatch: %v", err)
		}
	}

	fm, err := stardust.New(e2eConfig(4))
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	fsm := stardust.NewSafeWatcher(fm)
	f, err := replication.NewFollower(replication.FollowerConfig{
		Primary:    url,
		Bootstrap:  func(r io.Reader, _ uint64) error { return fsm.BootstrapReplica(r) },
		Apply:      fsm.ApplyWALRecord,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()

	// Keep ingesting while the follower catches up, so the stream serves
	// both cold segments and the live tail.
	for s := 0; s < 4; s++ {
		vals := make([]float64, 100)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
		}
		if err := sm.IngestBatch(s, vals); err != nil {
			t.Fatalf("IngestBatch: %v", err)
		}
	}

	waitConverged(t, f, m.WAL().LastLSN())

	if got, want := snapshotBytes(t, fsm), snapshotBytes(t, sm); !bytes.Equal(got, want) {
		t.Fatalf("follower snapshot differs from primary's (%d vs %d bytes)", len(got), len(want))
	}
	assertEqualQueries(t, fsm, sm)
}

// cutBody delivers at most n bytes of the wrapped body, then fails reads
// with a synthetic link error — a mid-stream disconnect at an arbitrary
// byte (and therefore frame) offset.
type cutBody struct {
	rc io.ReadCloser
	n  int
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.n <= 0 {
		return 0, fmt.Errorf("link cut")
	}
	if len(p) > c.n {
		p = p[:c.n]
	}
	n, err := c.rc.Read(p)
	c.n -= n
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }

// cuttingTransport wraps a transport and cuts every /wal response body
// after a random byte budget, so the follower sees repeated mid-stream
// disconnects at random frame offsets.
type cuttingTransport struct {
	rt http.RoundTripper

	mu   sync.Mutex
	rng  *rand.Rand
	cuts int
}

func (c *cuttingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err != nil || !strings.HasPrefix(req.URL.Path, "/wal") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	c.mu.Lock()
	limit := 13 + c.rng.Intn(400) // cuts mid-header, mid-payload, between frames
	c.cuts++
	c.mu.Unlock()
	resp.Body = &cutBody{rc: resp.Body, n: limit}
	return resp, nil
}

func (c *cuttingTransport) cutCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cuts
}

// TestE2EMidStreamDisconnects streams the whole log through a link that
// fails every connection after a random number of bytes. The follower
// must reconnect from its applied position each time and still converge
// to the primary's exact state — no record lost, duplicated, or torn.
func TestE2EMidStreamDisconnects(t *testing.T) {
	sm, m, url := newPrimaryServer(t)

	fm, err := stardust.New(e2eConfig(4))
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	fsm := stardust.NewSafeWatcher(fm)
	ct := &cuttingTransport{rt: http.DefaultTransport, rng: rand.New(rand.NewSource(42))}
	f, err := replication.NewFollower(replication.FollowerConfig{
		Primary:    url,
		Client:     &http.Client{Transport: ct},
		Bootstrap:  func(r io.Reader, _ uint64) error { return fsm.BootstrapReplica(r) },
		Apply:      fsm.ApplyWALRecord,
		MinBackoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	// Start the follower before ingesting so the data travels over the
	// cut link as single-record frames, not inside the bootstrap snapshot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitBootstrapped(t, f)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		for s := 0; s < 4; s++ {
			if err := sm.Ingest(s, rng.NormFloat64()*10); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}
	}

	waitConverged(t, f, m.WAL().LastLSN())
	if cuts := ct.cutCount(); cuts < 3 {
		t.Fatalf("link was cut only %d times — the test exercised too few disconnects", cuts)
	}
	if got, want := snapshotBytes(t, fsm), snapshotBytes(t, sm); !bytes.Equal(got, want) {
		t.Fatalf("state diverged across %d disconnects (%d vs %d snapshot bytes)", ct.cutCount(), len(got), len(want))
	}
	assertEqualQueries(t, fsm, sm)
}

// TestE2EWatcherEventStreamMatchesReference replicates into a watcher
// follower across a cutting link and requires its event stream to equal,
// event for event, the stream an uninterrupted local watcher produces
// from the same samples.
func TestE2EWatcherEventStreamMatchesReference(t *testing.T) {
	sm, m, url := newPrimaryServer(t)

	// Reference: an undisturbed watcher fed the identical sample sequence.
	register := func(w interface {
		WatchAggregate(int, int, float64, bool) (int, error)
	}) {
		// Edge-triggered on stream 0 (fires on alarm transitions) and
		// level-triggered on the same window (fires every alarming step):
		// two distinct event shapes to compare.
		if _, err := w.WatchAggregate(0, 8, 30, true); err != nil {
			t.Fatalf("WatchAggregate: %v", err)
		}
		if _, err := w.WatchAggregate(0, 16, 60, false); err != nil {
			t.Fatalf("WatchAggregate: %v", err)
		}
	}
	refM, err := stardust.New(e2eConfig(2))
	if err != nil {
		t.Fatalf("New reference: %v", err)
	}
	refW := stardust.NewSafeWatcher(refM)
	var refMu sync.Mutex
	var refEvents []stardust.Event
	refW.SetEventSink(func(evs []stardust.Event) {
		refMu.Lock()
		refEvents = append(refEvents, evs...)
		refMu.Unlock()
	})
	register(refW)

	// Follower: watcher with the same watches, fed over the cut link.
	folM, err := stardust.New(e2eConfig(2))
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	folW := stardust.NewSafeWatcher(folM)
	var folMu sync.Mutex
	var folEvents []stardust.Event
	folW.SetEventSink(func(evs []stardust.Event) {
		folMu.Lock()
		folEvents = append(folEvents, evs...)
		folMu.Unlock()
	})
	register(folW)

	ct := &cuttingTransport{rt: http.DefaultTransport, rng: rand.New(rand.NewSource(3))}
	f, err := replication.NewFollower(replication.FollowerConfig{
		Primary:    url,
		Client:     &http.Client{Transport: ct},
		Bootstrap:  func(r io.Reader, _ uint64) error { return folW.BootstrapReplica(r) },
		Apply:      folW.ApplyWALRecord,
		MinBackoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	// The follower connects BEFORE any ingestion, so its bootstrap
	// snapshot is empty (watermark 0) and every event-producing sample
	// arrives via the stream — the two event sequences must then be
	// identical end to end. Wait for the bootstrap so no early sample
	// races into the snapshot and out of the event stream.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitBootstrapped(t, f)

	// A waveform that crosses the aggregate threshold both ways and dwells
	// near the pattern query, on stream 0; noise on stream 1. The
	// reference watcher is pushed the identical sequence in the identical
	// order.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		var v0 float64
		switch {
		case i%40 < 10:
			v0 = 10 // alarm region: window sum 80 > 30
		case i%40 < 20:
			v0 = 5 // pattern region
		default:
			v0 = 0.1
		}
		noise := rng.NormFloat64()
		if err := sm.Ingest(0, v0); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if err := sm.Ingest(1, noise); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if err := refW.Ingest(0, v0); err != nil {
			t.Fatalf("reference Ingest: %v", err)
		}
		if err := refW.Ingest(1, noise); err != nil {
			t.Fatalf("reference Ingest: %v", err)
		}
	}

	waitConverged(t, f, m.WAL().LastLSN())

	refMu.Lock()
	wantEvents := append([]stardust.Event(nil), refEvents...)
	refMu.Unlock()
	folMu.Lock()
	gotEvents := append([]stardust.Event(nil), folEvents...)
	folMu.Unlock()
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("follower emitted %d events, reference %d", len(gotEvents), len(wantEvents))
	}
	for i := range wantEvents {
		if gotEvents[i] != wantEvents[i] {
			t.Fatalf("event %d: follower %+v, reference %+v", i, gotEvents[i], wantEvents[i])
		}
	}
	if len(wantEvents) == 0 {
		t.Fatal("reference produced no events — the waveform failed to trigger watches")
	}
}

// TestE2EReadOnlyReplicaServer wires a follower into a full HTTP server
// and checks the replica contract: ingest 403, queries 200, lag on
// /readyz.
func TestE2EReadOnlyReplicaServer(t *testing.T) {
	sm, m, url := newPrimaryServer(t)
	for s := 0; s < 4; s++ {
		if err := sm.IngestBatch(s, []float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatalf("IngestBatch: %v", err)
		}
	}

	fm, err := stardust.New(e2eConfig(4))
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	fsm := stardust.NewSafeWatcher(fm)
	f, err := replication.NewFollower(replication.FollowerConfig{
		Primary:    url,
		Bootstrap:  func(r io.Reader, _ uint64) error { return fsm.BootstrapReplica(r) },
		Apply:      fsm.ApplyWALRecord,
		MinBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	replicaSrv := server.New(fsm)
	replicaSrv.SetFollower(f, nil)
	rts := httptest.NewServer(replicaSrv)
	defer rts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitConverged(t, f, m.WAL().LastLSN())

	// Writes are refused.
	resp, err := http.Post(rts.URL+"/ingest", "application/json", strings.NewReader(`{"stream":0,"values":[1]}`))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica POST /ingest: %d, want 403", resp.StatusCode)
	}

	// Queries serve the replicated state.
	resp, err = http.Get(rts.URL + "/aggregate?stream=0&window=8&threshold=30")
	if err != nil {
		t.Fatalf("GET /aggregate: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica GET /aggregate: %d (%s)", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"alarm":true`)) {
		t.Fatalf("replica aggregate response missing alarm: %s", body)
	}

	// Readiness reports replication progress.
	resp, err = http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"role":"follower"`, `"lag_records":0`, `"lag_seconds":0`, `"applied_lsn"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/readyz missing %s: %s", want, body)
		}
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stardust"
	"stardust/internal/gen"
	"stardust/internal/wire"
)

func newTestServer(t *testing.T, snapshotPath string) (*httptest.Server, *stardust.SafeWatcher) {
	t.Helper()
	mon, err := newSafe(stardust.Config{
		Streams: 3, W: 8, Levels: 4, Transform: stardust.Sum, BoxCapacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mon, WithSnapshotPath(snapshotPath)))
	t.Cleanup(ts.Close)
	return ts, mon
}

// newSafe builds a fresh monitor from cfg behind the concurrent wrapper.
func newSafe(cfg stardust.Config) (*stardust.SafeWatcher, error) {
	m, err := stardust.New(cfg)
	if err != nil {
		return nil, err
	}
	return stardust.NewSafeWatcher(m), nil
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestIngestAndAggregate(t *testing.T) {
	ts, mon := newTestServer(t, "")
	// Per-stream ingest: quiet data then a burst on stream 1.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 2
	}
	for i := 80; i < 100; i++ {
		vals[i] = 30
	}
	resp, out := postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 1, "values": vals})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", resp.StatusCode, out)
	}
	if out["values"].(float64) != 100 {
		t.Fatalf("ingest ack = %v", out)
	}
	if mon.Now(1) != 99 {
		t.Fatalf("monitor time = %d", mon.Now(1))
	}

	resp, out = getJSON(t, ts.URL+"/aggregate?stream=1&window=16&threshold=200")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status %d: %v", resp.StatusCode, out)
	}
	if out["alarm"] != true {
		t.Fatalf("expected alarm, got %v", out)
	}
	if out["exact"].(float64) < 200 {
		t.Fatalf("exact = %v", out["exact"])
	}
}

func TestIngestRows(t *testing.T) {
	ts, mon := newTestServer(t, "")
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	resp, out := postJSON(t, ts.URL+"/ingest", map[string]any{"rows": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	for s := 0; s < 3; s++ {
		if mon.Now(s) != 1 {
			t.Fatalf("stream %d time = %d", s, mon.Now(s))
		}
	}
}

func TestIngestErrors(t *testing.T) {
	ts, _ := newTestServer(t, "")
	cases := []any{
		map[string]any{}, // neither form
		map[string]any{"stream": 9, "values": []float64{1}}, // bad stream
		map[string]any{"rows": [][]float64{{1}}},            // wrong row width
	}
	for i, body := range cases {
		resp, _ := postJSON(t, ts.URL+"/ingest", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d", resp.StatusCode)
	}
}

func TestAggregateParamErrors(t *testing.T) {
	ts, _ := newTestServer(t, "")
	for _, q := range []string{
		"",                   // all missing
		"stream=0&window=16", // missing threshold
		"stream=0&window=x&threshold=1",
		"stream=99&window=16&threshold=1",
	} {
		resp, _ := getJSON(t, ts.URL+"/aggregate?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
	// Valid params but un-decomposable window → 422.
	resp, _ := getJSON(t, ts.URL+"/aggregate?stream=0&window=7&threshold=1")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad window status %d, want 422", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	ts, _ := newTestServer(t, "")
	postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 0, "values": make([]float64, 50)})
	resp, out := getJSON(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if out["Streams"].(float64) != 3 {
		t.Fatalf("stats = %v", out)
	}
}

func TestPatternEndpoint(t *testing.T) {
	mon, err := newSafe(stardust.Config{
		Streams: 2, W: 8, Levels: 3, Transform: stardust.DWT, Mode: stardust.Batch,
		Coefficients: 4, Normalization: stardust.NormUnit, Rmax: 150, History: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mon))
	defer ts.Close()

	rng := rand.New(rand.NewSource(231))
	data := gen.RandomWalks(rng, 2, 300)
	for i := 0; i < 300; i++ {
		if err := mon.IngestAll([]float64{data[0][i], data[1][i]}); err != nil {
			t.Fatal(err)
		}
	}
	q := make([]float64, 40)
	copy(q, data[0][200:240])
	resp, out := postJSON(t, ts.URL+"/pattern", map[string]any{"query": q, "radius": 0.01})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pattern status %d: %v", resp.StatusCode, out)
	}
	matches := out["matches"].([]any)
	found := false
	for _, m := range matches {
		mm := m.(map[string]any)
		if mm["Stream"].(float64) == 0 && mm["End"].(float64) == 239 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted pattern not in response: %v", out)
	}
	// Error cases.
	resp, _ = postJSON(t, ts.URL+"/pattern", map[string]any{"query": []float64{}, "radius": 0.1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/pattern", map[string]any{"query": q, "radius": -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad radius status %d", resp.StatusCode)
	}
}

func TestCorrelationsEndpoint(t *testing.T) {
	mon, err := newSafe(stardust.Config{
		Streams: 4, W: 16, Levels: 3, Transform: stardust.DWT, Mode: stardust.Batch,
		Coefficients: 4, Normalization: stardust.NormZ,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mon))
	defer ts.Close()

	rng := rand.New(rand.NewSource(232))
	data := gen.CorrelatedWalks(rng, 4, 256, 2, 0.1)
	for i := 0; i < 256; i++ {
		if err := mon.IngestAll([]float64{data[0][i], data[1][i], data[2][i], data[3][i]}); err != nil {
			t.Fatal(err)
		}
	}
	resp, out := getJSON(t, ts.URL+"/correlations?level=2&radius=0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	pairs := out["pairs"].([]any)
	if len(pairs) == 0 {
		t.Fatalf("expected correlated pairs, got %v", out)
	}
	// Lagged variant.
	resp, out = getJSON(t, ts.URL+"/correlations?level=2&radius=0.5&lag=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lagged status %d: %v", resp.StatusCode, out)
	}
	if _, ok := out["screened"]; !ok {
		t.Fatalf("lagged response missing screened: %v", out)
	}
	// Errors.
	resp, _ = getJSON(t, ts.URL+"/correlations?level=9&radius=0.5")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad level status %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/correlations?level=2")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing radius status %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/correlations?level=2&radius=0.5&lag=x")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lag status %d", resp.StatusCode)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	ts, _ := newTestServer(t, path)
	postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 0, "values": []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}})
	resp, out := postJSON(t, ts.URL+"/snapshot", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %v", resp.StatusCode, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := stardust.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Now(0) != 8 {
		t.Fatalf("restored time = %d", loaded.Now(0))
	}
}

func TestSnapshotDisabled(t *testing.T) {
	ts, _ := newTestServer(t, "")
	resp, _ := postJSON(t, ts.URL+"/snapshot", map[string]any{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	ts, _ := newTestServer(t, "")
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /ingest status %d", resp.StatusCode)
	}
}

func TestConcurrentHTTPTraffic(t *testing.T) {
	ts, _ := newTestServer(t, "")
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(stream int) {
			var lastErr error
			for i := 0; i < 30; i++ {
				body, _ := json.Marshal(map[string]any{"stream": stream % 3, "values": []float64{float64(i)}})
				resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					lastErr = err
					break
				}
				resp.Body.Close()
			}
			done <- lastErr
		}(g)
	}
	for g := 0; g < 4; g++ {
		go func() {
			var lastErr error
			for i := 0; i < 20; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/stats", ts.URL))
				if err != nil {
					lastErr = err
					break
				}
				resp.Body.Close()
			}
			done <- lastErr
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWatcherBackedServer(t *testing.T) {
	mon, err := stardust.New(stardust.Config{
		Streams: 2, W: 4, Levels: 3, Transform: stardust.Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(stardust.NewSafeWatcher(mon)))
	defer ts.Close()

	// Register an edge-triggered aggregate watch on stream 0, window 8.
	resp, out := postJSON(t, ts.URL+"/watch", map[string]any{
		"type": "aggregate", "stream": 0, "window": 8, "threshold": 100,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d: %v", resp.StatusCode, out)
	}
	watchID := int(out["id"].(float64))

	// Quiet data, then a burst, then quiet — through /ingest.
	quiet := make([]float64, 20)
	for i := range quiet {
		quiet[i] = 1
	}
	burst := make([]float64, 10)
	for i := range burst {
		burst[i] = 50
	}
	for _, vals := range [][]float64{quiet, burst, quiet} {
		resp, out := postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 0, "values": vals})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d: %v", resp.StatusCode, out)
		}
	}

	// Collect events: one alarm, one cleared.
	resp, out = getJSON(t, ts.URL+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d: %v", resp.StatusCode, out)
	}
	events := out["events"].([]any)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (alarm + cleared): %v", len(events), out)
	}
	first := events[0].(map[string]any)
	if int(first["WatchID"].(float64)) != watchID {
		t.Fatalf("event watch id = %v", first["WatchID"])
	}
	next := int(out["next"].(float64))

	// The since cursor skips consumed events.
	resp, out = getJSON(t, fmt.Sprintf("%s/events?since=%d", ts.URL, next))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events-since status %d", resp.StatusCode)
	}
	if len(out["events"].([]any)) != 0 {
		t.Fatalf("since cursor did not skip: %v", out)
	}

	// Bad watch requests.
	resp, _ = postJSON(t, ts.URL+"/watch", map[string]any{"type": "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad type status %d", resp.StatusCode)
	}
	// Invalid watch parameters carry the typed ErrBadWatch rejection
	// (400 + machine-readable code), not the generic 422.
	resp, out = postJSON(t, ts.URL+"/watch", map[string]any{"type": "aggregate", "stream": 9, "window": 8, "threshold": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad stream status %d", resp.StatusCode)
	}
	if code, _ := out["code"].(float64); byte(code) != wire.CodeBadWatch {
		t.Fatalf("bad stream code = %v, want %d", out["code"], wire.CodeBadWatch)
	}
	resp, _ = getJSON(t, ts.URL+"/events?since=x")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since status %d", resp.StatusCode)
	}
}

// TestWatchEndpointsDisabledOnPlainServer: only a SafeWatcher backend
// evaluates standing queries; any other backend (here a ShardedMonitor,
// as for the router's cluster coordinator) answers the watch surface
// with 501.
func TestWatchEndpointsDisabledOnPlainServer(t *testing.T) {
	sm, err := stardust.NewSharded(stardust.Config{Streams: 3, W: 8, Levels: 4, Transform: stardust.Sum, BoxCapacity: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sm))
	t.Cleanup(ts.Close)
	resp, _ := postJSON(t, ts.URL+"/watch", map[string]any{"type": "aggregate"})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("watch status %d, want 501", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/events")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("events status %d, want 501", resp.StatusCode)
	}
}

func TestWatcherBackedServerQueriesStillWork(t *testing.T) {
	mon, err := stardust.New(stardust.Config{
		Streams: 2, W: 4, Levels: 3, Transform: stardust.Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(stardust.NewSafeWatcher(mon)))
	defer ts.Close()
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = 2
	}
	postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 0, "values": vals})
	resp, out := getJSON(t, ts.URL+"/aggregate?stream=0&window=8&threshold=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["exact"].(float64) != 16 {
		t.Fatalf("exact = %v", out["exact"])
	}
	resp, _ = getJSON(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
}

// TestWatcherBackedRowsIngest: synchronized-rows ingestion also evaluates
// standing queries.
func TestWatcherBackedRowsIngest(t *testing.T) {
	mon, err := stardust.New(stardust.Config{
		Streams: 2, W: 4, Levels: 2, Transform: stardust.Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(stardust.NewSafeWatcher(mon)))
	defer ts.Close()
	resp, out := postJSON(t, ts.URL+"/watch", map[string]any{
		"type": "aggregate", "stream": 1, "window": 4, "threshold": 100,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: %v", out)
	}
	rows := make([][]float64, 10)
	for i := range rows {
		rows[i] = []float64{1, 50} // stream 1 sums 200 per window
	}
	resp, out = postJSON(t, ts.URL+"/ingest", map[string]any{"rows": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %v", out)
	}
	_, out = getJSON(t, ts.URL+"/events")
	events := out["events"].([]any)
	if len(events) == 0 {
		t.Fatal("rows ingestion produced no events")
	}
	first := events[0].(map[string]any)
	if int(first["Stream"].(float64)) != 1 {
		t.Fatalf("event stream = %v", first["Stream"])
	}
}

func TestHealthEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, "")
	resp, out := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, out)
	}
	resp, out = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || out["status"] != "ready" {
		t.Fatalf("readyz = %d %v", resp.StatusCode, out)
	}
}

func TestReadyzDuringShutdown(t *testing.T) {
	mon, err := newSafe(stardust.Config{Streams: 1, W: 8, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(mon)
	s.ready.Store(false)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", rec.Code)
	}
	// Liveness stays green: the process is still up.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", rec.Code)
	}
}

// TestPanicRecovery: a handler panic becomes a JSON 500 and the server
// keeps serving.
func TestPanicRecovery(t *testing.T) {
	mon, err := newSafe(stardust.Config{Streams: 1, W: 8, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(mon)
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, out := getJSON(t, ts.URL+"/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, want 500", resp.StatusCode)
	}
	if out["error"] == nil {
		t.Fatalf("panic response not JSON error: %v", out)
	}
	// The process survived; normal traffic continues.
	resp, _ = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", resp.StatusCode)
	}
}

func TestIngestStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrapped: %w", stardust.ErrBadValue), http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", stardust.ErrStreamRange), http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", stardust.ErrQuarantined), http.StatusConflict},
		{errors.New("other"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := ingestStatus(c.err); got != c.want {
			t.Errorf("ingestStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestIngestBadValueSurvives drives a non-finite sample through the
// backend the way a binary ingest path would: the server responds with an
// error status, the process does not die, and subsequent traffic works.
func TestIngestBadValueSurvives(t *testing.T) {
	mon, err := newSafe(stardust.Config{Streams: 2, W: 8, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(mon)
	if err := s.mon.Ingest(0, math.NaN()); !errors.Is(err, stardust.ErrBadValue) {
		t.Fatalf("backend NaN err = %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 0, "values": []float64{1, 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after bad value = %d", resp.StatusCode)
	}
	if st := mon.Stats(); st.Ingest.Rejected != 1 || st.Ingest.Accepted != 2 {
		t.Fatalf("guard stats = %+v", st.Ingest)
	}
}

func TestSnapshotEndpointKeepsBackup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	ts, _ := newTestServer(t, path)
	postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 0, "values": []float64{1, 2, 3}})
	if resp, out := postJSON(t, ts.URL+"/snapshot", map[string]any{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot 1: %d %v", resp.StatusCode, out)
	}
	postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 0, "values": []float64{4}})
	if resp, out := postJSON(t, ts.URL+"/snapshot", map[string]any{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot 2: %d %v", resp.StatusCode, out)
	}
	if _, err := os.Stat(path + ".bak"); err != nil {
		t.Fatalf("no backup: %v", err)
	}
	prev, err := stardust.LoadFile(path + ".bak")
	if err != nil {
		t.Fatal(err)
	}
	if prev.Now(0) != 2 {
		t.Fatalf("backup time = %d, want 2", prev.Now(0))
	}
}

// TestServeLifecycle runs the full Serve loop: auto-snapshots fire while
// serving, and cancellation drains and writes a final snapshot.
func TestServeLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	mon, err := newSafe(stardust.Config{Streams: 2, W: 8, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := New(mon, WithSnapshotPath(path))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- s.Serve(ctx, ln, ServeOptions{SnapshotEvery: 10 * time.Millisecond})
	}()
	base := "http://" + ln.Addr().String()

	// Ingest under load while hitting /healthz — it must stay 200.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			body, _ := json.Marshal(map[string]any{"stream": 0, "values": []float64{float64(i)}})
			resp, err := http.Post(base+"/ingest", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	for i := 0; i < 10; i++ {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Errorf("healthz under load: %v", err)
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz under load = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	wg.Wait()

	// The auto-snapshot loop has produced a loadable file by now.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-snapshot never wrote a file")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	// The final snapshot reflects all ingested values.
	final, err := stardust.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Now(0) != 49 {
		t.Fatalf("final snapshot time = %d, want 49", final.Now(0))
	}
}

// TestServeWithoutSnapshotPath: lifecycle works with persistence disabled.
func TestServeWithoutSnapshotPath(t *testing.T) {
	mon, err := newSafe(stardust.Config{Streams: 1, W: 8, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(mon)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, ServeOptions{}) }()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
	}
}

func TestMetricszEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, "")
	// Drive some work through the HTTP path so the counters are nonzero.
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if resp, _ := postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 0, "values": vals}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/aggregate?stream=0&window=8&threshold=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"stardust_ingest_samples_total 16\n",
		"stardust_ingest_accepted_total 16\n",
		"# TYPE stardust_index_node_reads_total counter",
		`stardust_query_total{class="aggregate"} 1`,
		"# TYPE stardust_query_latency_seconds histogram",
		"# TYPE stardust_ingest_batches_total counter",
		"# TYPE stardust_parallel_workers gauge",
		"# TYPE stardust_parallel_queue_depth histogram",
		"# TYPE stardust_parallel_stage_latency_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metricsz missing %q", want)
		}
	}
}

func TestMetricszMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, "")
	resp, err := http.Post(ts.URL+"/metricsz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metricsz status %d, want 405", resp.StatusCode)
	}
}

func TestPprofIndex(t *testing.T) {
	ts, _ := newTestServer(t, "")
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stardust"
	"stardust/client"
	"stardust/internal/cluster"
	"stardust/internal/gen"
	"stardust/internal/server"
	"stardust/internal/transport"
)

// e2eConfig is the workload every cluster end-to-end test runs: a NormZ
// DWT monitor small enough that index screens are effectively exhaustive,
// so the byte-parity contract is about the merge, not about oversampling
// luck.
func e2eConfig() stardust.Config {
	return stardust.Config{
		Streams: 6, W: 16, Levels: 3, Transform: stardust.DWT, Mode: stardust.Batch,
		Coefficients: 4, Normalization: stardust.NormZ, History: 512,
	}
}

// testBackend is one in-process stardust-server: HTTP surface via
// httptest, binary wire surface on a loopback listener.
type testBackend struct {
	name    string
	hts     *httptest.Server
	tcpAddr string
	stopTCP context.CancelFunc
	tcpDone chan struct{}
}

func (b *testBackend) shardConfig() cluster.ShardConfig {
	return cluster.ShardConfig{Name: b.name, HTTP: b.hts.URL, TCP: b.tcpAddr}
}

// kill tears the backend down hard: HTTP refuses connections, the wire
// listener closes. This is the shard-failure injection for the degraded
// partial-result path.
func (b *testBackend) kill() {
	b.hts.CloseClientConnections()
	b.hts.Close()
	b.stopTCP()
	<-b.tcpDone
}

func startBackend(t *testing.T, name string, cfg stardust.Config) *testBackend {
	t.Helper()
	mon, err := stardust.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm := stardust.NewSafeWatcher(mon)
	srv := server.New(sm)
	hts := httptest.NewServer(srv)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hts.Close()
		t.Fatal(err)
	}
	ts := transport.NewServer(transport.Config{Backend: sm, ReadOnly: srv.IsReadOnly, MaxConns: 16})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ts.Serve(ctx, ln)
	}()
	b := &testBackend{name: name, hts: hts, tcpAddr: ln.Addr().String(), stopTCP: cancel, tcpDone: done}
	t.Cleanup(func() {
		cancel()
		<-done
		hts.Close()
	})
	return b
}

// startReference builds the single-monitor oracle over the same config and
// serves it through the same HTTP stack, so router and reference response
// bytes come off identical code paths.
func startReference(t *testing.T, cfg stardust.Config) *httptest.Server {
	t.Helper()
	mon, err := stardust.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(server.New(stardust.NewSafeWatcher(mon)))
	t.Cleanup(hts.Close)
	return hts
}

// doRequest performs one HTTP request and returns status and raw body.
func doRequest(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// queryCase is one query-class request replayed against router and
// reference.
type queryCase struct {
	name   string
	method string
	path   string
	body   any
}

func e2eQueryCases(q []float64) []queryCase {
	return []queryCase{
		{"pattern", http.MethodPost, "/pattern", map[string]any{"query": q, "radius": 12.0}},
		{"nearest", http.MethodPost, "/nearest", map[string]any{"query": q, "k": 5}},
		{"correlations", http.MethodGet, "/correlations?level=1&radius=4", nil},
		{"lagged", http.MethodGet, "/correlations?level=1&radius=4&lag=8", nil},
	}
}

// TestClusterE2EByteParity is the tentpole gate: three backend servers
// behind a router must answer every query class with response bytes
// identical to a single monitor that ingested the same samples, with the
// ingest workload split across both transports. Then one shard dies and
// the degrade policy must keep answering, flagged partial.
func TestClusterE2EByteParity(t *testing.T) {
	cfg := e2eConfig()
	backends := []*testBackend{
		startBackend(t, "shard-a", cfg),
		startBackend(t, "shard-b", cfg),
		startBackend(t, "shard-c", cfg),
	}
	shardCfgs := make([]cluster.ShardConfig, len(backends))
	for i, b := range backends {
		shardCfgs[i] = b.shardConfig()
	}

	cl, err := cluster.New(cluster.Config{
		Shards:       shardCfgs,
		Streams:      cfg.Streams,
		VNodes:       32,
		ShardTimeout: 5 * time.Second,
		Partial:      cluster.PartialDegrade,
		Retries:      1,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	router := httptest.NewServer(server.New(cl))
	t.Cleanup(router.Close)

	// Router wire tier: TCP ingest arriving at the router forwards through
	// the same coordinator.
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rts := transport.NewServer(transport.Config{Backend: cl, MaxConns: 16})
	rctx, rcancel := context.WithCancel(context.Background())
	rdone := make(chan struct{})
	go func() {
		defer close(rdone)
		_ = rts.Serve(rctx, rln)
	}()
	t.Cleanup(func() { rcancel(); <-rdone })

	reference := startReference(t, cfg)

	// Mixed-transport ingest: even streams reach the router over the binary
	// wire, odd streams over HTTP. The reference ingests the same samples
	// over its HTTP surface.
	const n = 400
	rng := rand.New(rand.NewSource(99))
	data := gen.RandomWalks(rng, cfg.Streams, n)

	tcpClient, err := client.New(client.WithTCP(rln.Addr().String()), client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer tcpClient.Close()
	httpClient, err := client.New(client.WithHTTP(router.URL), client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer httpClient.Close()
	refClient, err := client.New(client.WithHTTP(reference.URL), client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer refClient.Close()

	for s := 0; s < cfg.Streams; s++ {
		ingest := httpClient
		if s%2 == 0 {
			ingest = tcpClient
		}
		if err := ingest.IngestBatch(s, data[s]); err != nil {
			t.Fatalf("router ingest stream %d: %v", s, err)
		}
		if err := refClient.IngestBatch(s, data[s]); err != nil {
			t.Fatalf("reference ingest stream %d: %v", s, err)
		}
	}

	// Ownership sanity: full-width provisioning means Stats reports the
	// configured stream count and the whole raw history.
	if st := cl.Stats(); st.Streams != cfg.Streams {
		t.Fatalf("cluster stats streams = %d, want %d", st.Streams, cfg.Streams)
	}

	q := make([]float64, 48)
	copy(q, data[4][300:348])

	for _, qc := range e2eQueryCases(q) {
		gotStatus, got := doRequest(t, qc.method, router.URL+qc.path, qc.body)
		wantStatus, want := doRequest(t, qc.method, reference.URL+qc.path, qc.body)
		if gotStatus != wantStatus {
			t.Fatalf("%s: router status %d, reference %d (router body %s)", qc.name, gotStatus, wantStatus, got)
		}
		if wantStatus != http.StatusOK {
			t.Fatalf("%s: reference refused the query: %d %s", qc.name, wantStatus, want)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: response bytes differ\nrouter:    %s\nreference: %s", qc.name, got, want)
		}
	}

	// Query rejections propagate as rejections, not shard failures: a bad
	// level must 422 on both surfaces.
	gotStatus, _ := doRequest(t, http.MethodGet, router.URL+"/correlations?level=99&radius=4", nil)
	wantStatus, _ := doRequest(t, http.MethodGet, reference.URL+"/correlations?level=99&radius=4", nil)
	if gotStatus != wantStatus || gotStatus == http.StatusOK {
		t.Fatalf("bad level: router %d, reference %d; want matching non-200", gotStatus, wantStatus)
	}

	// Shard kill: under the degrade policy every query class keeps
	// answering with 200 and "partial": true, covering only the surviving
	// shards' streams.
	backends[1].kill()
	for _, qc := range e2eQueryCases(q) {
		status, body := doRequest(t, qc.method, router.URL+qc.path, qc.body)
		if status != http.StatusOK {
			t.Fatalf("%s after shard kill: status %d body %s", qc.name, status, body)
		}
		var resp struct {
			Partial bool `json:"partial"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s after shard kill: %v", qc.name, err)
		}
		if !resp.Partial {
			t.Fatalf("%s after shard kill: response not flagged partial: %s", qc.name, body)
		}
	}

	// Ingest owned by the dead shard fails loudly; ingest owned by a
	// survivor keeps working.
	deadOwned, liveOwned := -1, -1
	for s := 0; s < cfg.Streams; s++ {
		if cl.Owner(s) == "shard-b" {
			deadOwned = s
		} else {
			liveOwned = s
		}
	}
	if liveOwned >= 0 {
		if err := cl.Ingest(liveOwned, 1.5); err != nil {
			t.Fatalf("ingest to surviving shard: %v", err)
		}
	}
	if deadOwned >= 0 {
		if err := cl.Ingest(deadOwned, 1.5); err == nil {
			t.Fatal("ingest to dead shard succeeded")
		}
	}
}

// TestClusterPartialFailPolicy: under the fail policy a dead shard turns
// scatter-gather queries into errors instead of partial results.
func TestClusterPartialFailPolicy(t *testing.T) {
	cfg := e2eConfig()
	backends := []*testBackend{
		startBackend(t, "shard-a", cfg),
		startBackend(t, "shard-b", cfg),
	}
	shardCfgs := make([]cluster.ShardConfig, len(backends))
	for i, b := range backends {
		shardCfgs[i] = b.shardConfig()
	}
	cl, err := cluster.New(cluster.Config{
		Shards:       shardCfgs,
		Streams:      cfg.Streams,
		Partial:      cluster.PartialFail,
		ShardTimeout: 2 * time.Second,
		Retries:      1,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	for s := 0; s < cfg.Streams; s++ {
		if err := cl.IngestBatch(s, []float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	backends[0].kill()
	if _, err := cl.FindPattern(make([]float64, 16), 5); err == nil {
		t.Fatal("fail policy returned a result with a dead shard")
	} else if strings.Contains(err.Error(), "partial") {
		t.Fatalf("fail policy produced a partial-result error: %v", err)
	}
}

// TestClusterShardJoinLeave: the admin join/leave path remaps the ring in
// place; after a leave, departed streams route to survivors and the
// removed shard is gone from the member list.
func TestClusterShardJoinLeave(t *testing.T) {
	cfg := e2eConfig()
	backends := []*testBackend{
		startBackend(t, "shard-a", cfg),
		startBackend(t, "shard-b", cfg),
		startBackend(t, "shard-c", cfg),
	}
	cl, err := cluster.New(cluster.Config{
		Shards:  []cluster.ShardConfig{backends[0].shardConfig(), backends[1].shardConfig()},
		Streams: cfg.Streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	before := make([]string, cfg.Streams)
	for s := range before {
		before[s] = cl.Owner(s)
	}
	if err := cl.AddShard(backends[2].shardConfig()); err != nil {
		t.Fatal(err)
	}
	for s := range before {
		if now := cl.Owner(s); now != before[s] && now != "shard-c" {
			t.Fatalf("stream %d moved %q -> %q on join, not to the joiner", s, before[s], now)
		}
	}
	if err := cl.AddShard(backends[2].shardConfig()); err == nil {
		t.Fatal("double join accepted")
	}
	if err := cl.RemoveShard("shard-c"); err != nil {
		t.Fatal(err)
	}
	for s := range before {
		if now := cl.Owner(s); now != before[s] {
			t.Fatalf("stream %d owner %q after join+leave, want %q restored", s, now, before[s])
		}
	}
	if got := cl.Members(); len(got) != 2 || got[0] != "shard-a" || got[1] != "shard-b" {
		t.Fatalf("members after leave: %v", got)
	}
	if err := cl.RemoveShard("shard-a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveShard("shard-b"); err == nil {
		t.Fatal("removed the last shard")
	}
}

// TestClusterHealthProbes: ProbeHealth counts reachable shards and the
// gauge tracks a kill.
func TestClusterHealthProbes(t *testing.T) {
	cfg := e2eConfig()
	backends := []*testBackend{
		startBackend(t, "shard-a", cfg),
		startBackend(t, "shard-b", cfg),
	}
	cl, err := cluster.New(cluster.Config{
		Shards:       []cluster.ShardConfig{backends[0].shardConfig(), backends[1].shardConfig()},
		Streams:      cfg.Streams,
		ShardTimeout: 2 * time.Second,
		Retries:      0,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if got := cl.ProbeHealth(context.Background()); got != 2 {
		t.Fatalf("healthy = %d, want 2", got)
	}
	backends[1].kill()
	if got := cl.ProbeHealth(context.Background()); got != 1 {
		t.Fatalf("healthy after kill = %d, want 1", got)
	}
}

// TestClusterAggregateRouting: single-stream queries route to the owning
// shard and agree with a single monitor.
func TestClusterAggregateRouting(t *testing.T) {
	cfg := stardust.Config{Streams: 5, W: 8, Levels: 3, Transform: stardust.Sum}
	backends := []*testBackend{
		startBackend(t, "shard-a", cfg),
		startBackend(t, "shard-b", cfg),
	}
	cl, err := cluster.New(cluster.Config{
		Shards:  []cluster.ShardConfig{backends[0].shardConfig(), backends[1].shardConfig()},
		Streams: cfg.Streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	single, err := stardust.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	data := gen.RandomWalks(rng, cfg.Streams, 200)
	for s := 0; s < cfg.Streams; s++ {
		if err := cl.IngestBatch(s, data[s]); err != nil {
			t.Fatal(err)
		}
		if err := single.IngestBatch(s, data[s]); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < cfg.Streams; s++ {
		want, err := single.AggregateBound(s, 16)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.AggregateBound(s, 16)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("stream %d bound %+v != %+v", s, got, want)
		}
		wantRes, err := single.CheckAggregate(s, 16, 50)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := cl.CheckAggregate(s, 16, 50)
		if err != nil {
			t.Fatal(err)
		}
		if gotRes != wantRes {
			t.Fatalf("stream %d aggregate %+v != %+v", s, gotRes, wantRes)
		}
		if got, want := cl.Now(s), single.Now(s); got != want {
			t.Fatalf("stream %d now %d != %d", s, got, want)
		}
	}
	if _, err := cl.AggregateBound(99, 16); err == nil {
		t.Fatal("out-of-range stream accepted")
	}
	if fmt.Sprint(cl.NumStreams()) != fmt.Sprint(cfg.Streams) {
		t.Fatalf("NumStreams = %d", cl.NumStreams())
	}
}

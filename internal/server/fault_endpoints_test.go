package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stardust"
	"stardust/internal/fault"
	"stardust/internal/replication"
	"stardust/internal/wal"
)

// deadFS is a wal.FS whose writes fail while broken is set; everything
// else passes through to the real filesystem.
type deadFS struct {
	base   wal.FS
	broken *atomic.Bool
}

func (d *deadFS) MkdirAll(dir string, perm os.FileMode) error { return d.base.MkdirAll(dir, perm) }
func (d *deadFS) ReadDir(dir string) ([]os.DirEntry, error)   { return d.base.ReadDir(dir) }
func (d *deadFS) ReadFile(path string) ([]byte, error)        { return d.base.ReadFile(path) }
func (d *deadFS) Truncate(path string, size int64) error      { return d.base.Truncate(path, size) }
func (d *deadFS) Remove(path string) error                    { return d.base.Remove(path) }

func (d *deadFS) OpenFile(path string, flag int, perm os.FileMode) (wal.File, error) {
	if d.broken.Load() {
		return nil, fmt.Errorf("deadFS: broken")
	}
	f, err := d.base.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &deadFile{f: f, broken: d.broken}, nil
}

type deadFile struct {
	f      wal.File
	broken *atomic.Bool
}

func (f *deadFile) Write(p []byte) (int, error) {
	if f.broken.Load() {
		return 0, fmt.Errorf("deadFS: broken")
	}
	return f.f.Write(p)
}
func (f *deadFile) Sync() error  { return f.f.Sync() }
func (f *deadFile) Close() error { return f.f.Close() }

// TestPromoteEndpointNotReplica: /repl/promote and the primary dispatch
// routes refuse servers with no replication role.
func TestPromoteEndpointNotReplica(t *testing.T) {
	ts, _ := newTestServer(t, "")
	resp, err := http.Post(ts.URL+"/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("promote on non-replica: got %d, want 503", resp.StatusCode)
	}
	for _, path := range []string{"/repl/status", "/repl/snapshot", "/wal?from=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s on non-primary: got %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestDegradedReadyz: a WAL disk failure under the degrade policy keeps
// ingestion acking and flips /readyz, /statz and /metricsz to the
// degraded view operators alert on.
func TestDegradedReadyz(t *testing.T) {
	broken := &atomic.Bool{}
	cfg := stardust.Config{
		Streams: 2, W: 8, Levels: 3,
		Durability: stardust.DurabilityConfig{
			Dir:           t.TempDir(),
			Fsync:         stardust.FsyncNone,
			FailPolicy:    stardust.WALFailDegrade,
			FS:            &deadFS{base: wal.OSFS{}, broken: broken},
			RetryAttempts: 1,
			RetryBackoff:  time.Microsecond,
			ProbeInterval: time.Hour, // hold degraded mode open for the assertions
		},
	}
	m, err := stardust.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	sm := stardust.NewSafeWatcher(m)
	ts := httptest.NewServer(New(sm))
	t.Cleanup(ts.Close)

	resp, body := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("healthy readyz: got %d %v", resp.StatusCode, body)
	}

	broken.Store(true)
	presp, pbody := postJSON(t, ts.URL+"/ingest", map[string]any{"stream": 0, "values": []float64{1.5}})
	if presp.StatusCode != http.StatusOK || pbody["values"].(float64) != 1 {
		t.Fatalf("degraded ingest must still ack: got %d %v", presp.StatusCode, pbody)
	}
	if !m.WALDegraded() {
		t.Fatal("monitor not degraded after append on dead disk")
	}

	resp, body = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded readyz must stay 200 (serving, in memory): got %d", resp.StatusCode)
	}
	if body["status"] != "degraded" || body["wal_degraded"] != true {
		t.Fatalf("degraded readyz: got %v", body)
	}

	_, statz := getJSON(t, ts.URL+"/statz")
	walInfo, ok := statz["wal"].(map[string]any)
	if !ok {
		t.Fatalf("statz has no wal section: %v", statz)
	}
	if walInfo["degraded"] != true {
		t.Fatalf("statz wal.degraded: got %v", walInfo["degraded"])
	}
	if n, _ := walInfo["dropped_appends"].(float64); n < 1 {
		t.Fatalf("statz wal.dropped_appends: got %v, want >= 1", walInfo["dropped_appends"])
	}

	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "stardust_wal_degraded 1") {
		t.Fatalf("metricsz missing stardust_wal_degraded 1:\n%s", raw)
	}
}

// TestPromoteEndpointFullPath drives promotion over HTTP: a mirrored
// replica of a live primary answers POST /repl/promote with 200 exactly
// once (409 after), opens ingestion, reports role "primary" on /readyz,
// and serves /wal to followers.
func TestPromoteEndpointFullPath(t *testing.T) {
	// Primary.
	pcfg := stardust.Config{Streams: 2, W: 8, Levels: 3}
	pcfg.Durability = stardust.DurabilityConfig{Dir: t.TempDir(), Fsync: stardust.FsyncNone}
	pm, err := stardust.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pm.Close() })
	psm := stardust.NewSafeWatcher(pm)
	psrv := New(psm)
	psrv.AttachPrimary(pm.WAL(), nil)
	pts := httptest.NewServer(psrv)
	t.Cleanup(pts.Close)
	for i := 0; i < 10; i++ {
		if err := psm.Ingest(i%2, float64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Mirrored replica.
	rm, err := stardust.New(stardust.Config{Streams: 2, W: 8, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	rsm := stardust.NewSafeWatcher(rm)
	rsrv := New(rsm)
	f, err := replication.NewFollower(replication.FollowerConfig{
		Primary:   pts.URL,
		Bootstrap: func(r io.Reader, _ uint64) error { return rsm.BootstrapReplica(r) },
		Apply:     rsm.ApplyWALRecord,
		MirrorDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rsrv.SetFollower(f, nil)
	rts := httptest.NewServer(rsrv)
	t.Cleanup(rts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go f.Run(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for f.Status().AppliedLSN < pm.WAL().LastLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at LSN %d", f.Status().AppliedLSN)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Replica refuses writes pre-promotion.
	resp, _ := postJSON(t, rts.URL+"/ingest", map[string]any{"stream": 0, "values": []float64{1}})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica ingest: got %d, want 403", resp.StatusCode)
	}

	// Promote over HTTP.
	resp, body := postJSON(t, rts.URL+"/repl/promote", nil)
	if resp.StatusCode != http.StatusOK || body["promoted"] != true {
		t.Fatalf("promote: got %d %v", resp.StatusCode, body)
	}
	sealed := uint64(body["sealed_lsn"].(float64))
	if sealed != pm.WAL().LastLSN() {
		t.Fatalf("sealed_lsn: got %d, want %d", sealed, pm.WAL().LastLSN())
	}
	resp, _ = postJSON(t, rts.URL+"/repl/promote", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second promote: got %d, want 409", resp.StatusCode)
	}

	// Promotion is observable and ingestion is open.
	_, ready := getJSON(t, rts.URL+"/readyz")
	repl, ok := ready["replication"].(map[string]any)
	if !ok || repl["role"] != "primary" || repl["promoted"] != true {
		t.Fatalf("post-promotion readyz replication: got %v", ready["replication"])
	}
	resp, body = postJSON(t, rts.URL+"/ingest", map[string]any{"stream": 0, "values": []float64{2}})
	if resp.StatusCode != http.StatusOK || body["values"].(float64) != 1 {
		t.Fatalf("post-promotion ingest: got %d %v", resp.StatusCode, body)
	}

	// The promoted server serves its mirror on /wal, starting where the
	// mirror starts — the bootstrap watermark + 1 (earlier LSNs live only
	// in the dead primary's log and correctly answer 410).
	wresp, err := http.Get(fmt.Sprintf("%s/wal?from=%d", rts.URL, sealed+1))
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("promoted /wal: got %d, want 200", wresp.StatusCode)
	}
}

// TestStatzFaultSection: an armed injector's counters surface on /statz.
func TestStatzFaultSection(t *testing.T) {
	ts, _ := newTestServer(t, "")
	_, statz := getJSON(t, ts.URL+"/statz")
	if _, ok := statz["fault"]; ok {
		t.Fatal("statz reports a fault section with no injector armed")
	}

	mon, err := newSafe(stardust.Config{Streams: 2, W: 8, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(mon)
	inj := fault.New(1, fault.Rule{Point: "x.y", Err: fault.KindEIO})
	srv.SetFaultInjector(inj)
	inj.Eval("x.y")
	ts2 := httptest.NewServer(srv)
	t.Cleanup(ts2.Close)
	_, statz = getJSON(t, ts2.URL+"/statz")
	fsec, ok := statz["fault"].(map[string]any)
	if !ok {
		t.Fatalf("statz has no fault section: %v", statz)
	}
	if fsec["rules_armed"].(float64) != 1 || fsec["injected"].(float64) < 1 {
		t.Fatalf("statz fault counters: got %v", fsec)
	}
}

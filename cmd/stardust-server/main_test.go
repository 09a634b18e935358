package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"stardust"
	"stardust/internal/server"
)

// drainEvents returns the server's buffered events (GET /events).
func drainEvents(t *testing.T, srv *server.Server) []stardust.Event {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /events: status %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Events []stardust.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Events
}

// TestBootSpecNoRepeatedAlarmAfterCrash boots a durable spec-loaded
// server, drives an edge-triggered aggregate watch into its firing
// state, abandons the process state without Close (a kill -9), boots
// again on the same files and ingests one more above-threshold frame:
// the alarm was already delivered before the crash, so the restarted
// server must raise no event. Covered with the firing state held only in
// the WAL (rebuilt by replaying the tail through the watches) and only
// in a checkpoint taken just before the crash (rebuilt by priming the
// watches against the restored snapshot).
func TestBootSpecNoRepeatedAlarmAfterCrash(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		name := "wal-only"
		if checkpoint {
			name = "checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			specPath := filepath.Join(dir, "mon.spec")
			src := "watch burst on stream 0 aggregate window 8 threshold 100 edge;\n"
			if err := os.WriteFile(specPath, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(dir, "state.snap")
			cfg := stardust.Config{
				Streams: 2, W: 8, Levels: 3, Transform: stardust.Sum,
				Durability: stardust.DurabilityConfig{
					Dir: filepath.Join(dir, "wal"), Fsync: stardust.FsyncInterval,
				},
			}
			frame := func(v float64) []float64 {
				vs := make([]float64, 8)
				for i := range vs {
					vs[i] = v
				}
				return vs
			}

			srv, sw, _, err := boot(cfg, snap, "", specPath)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sw.Close() })
			for i := 0; i < 3; i++ {
				if err := sw.IngestBatch(0, frame(1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.IngestBatch(0, frame(30)); err != nil {
				t.Fatal(err)
			}
			if evs := drainEvents(t, srv); len(evs) != 1 || evs[0].Kind != stardust.EventAggregate {
				t.Fatalf("before the crash: events %+v, want one aggregate alarm", evs)
			}
			if err := sw.IngestBatch(0, frame(30)); err != nil {
				t.Fatal(err)
			}
			if evs := drainEvents(t, srv); len(evs) != 1 {
				t.Fatalf("a still-firing edge watch raised %d events, want the first one only", len(evs))
			}
			if checkpoint {
				if err := sw.Checkpoint(snap); err != nil {
					t.Fatal(err)
				}
			}

			// Crash: the first instance is abandoned without Close.
			srv2, sw2, replay, err := boot(cfg, snap, "", specPath)
			if err != nil {
				t.Fatal(err)
			}
			defer sw2.Close()
			if !checkpoint && replay.Records == 0 {
				t.Fatalf("restart replayed no WAL records: %+v", replay)
			}
			if err := sw2.IngestBatch(0, frame(30)); err != nil {
				t.Fatal(err)
			}
			if evs := drainEvents(t, srv2); len(evs) != 0 {
				t.Fatalf("alarm firing at the crash was delivered again after the restart: %+v", evs)
			}
		})
	}
}

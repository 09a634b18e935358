package server

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"stardust/internal/fault"
	"stardust/internal/obs"
	"stardust/internal/replication"
	"stardust/internal/wal"
)

// walPromoter is the backend surface promotion needs: SafeWatcher
// attaches a sealed mirror log in place.
type walPromoter interface {
	Promote(log *wal.Log) error
}

// SetWALRetainRecords sets the minimum number of trailing WAL records the
// replication primary keeps past checkpoints even with no follower
// connected — a grace window so a follower that reconnects after a brief
// absence streams from its position instead of re-bootstrapping through a
// 410 Gone. Call before AttachPrimary (or before a promotion installs the
// primary); 0 disables the window.
func (s *Server) SetWALRetainRecords(n uint64) { s.retain = n }

// SetFaultInjector exposes an armed fault injector's counters on /statz
// and /metricsz (stardust_fault_*), so a chaos drill can verify from the
// outside that its schedule actually fired. It does not arm anything by
// itself — the injector is wired into the WAL FS seam or HTTP transports
// by the caller.
func (s *Server) SetFaultInjector(inj *fault.Injector) { s.faultInj = inj }

// AttachPrimary makes the server a replication primary: the
// already-mounted GET /repl/status, /repl/snapshot and /wal endpoints
// begin serving from log. Snapshots are produced from the backend with
// the watermark captured before serialization, exactly as Checkpoint
// does, so a follower that bootstraps from one and streams from
// watermark+1 converges to the primary's state. The primary's retention
// floor is wired into the log: checkpoints do not trim records a
// connected follower still needs (nor the SetWALRetainRecords grace
// window). metrics (optional) receives the stardust_repl_primary_*
// instruments and is merged into /metricsz.
func (s *Server) AttachPrimary(log *wal.Log, metrics *obs.ReplMetrics) {
	s.replMetrics = metrics
	s.installPrimary(log, metrics)
}

// installPrimary builds the Primary over log and swaps it behind the
// replication routes. Shared by AttachPrimary and Promote.
func (s *Server) installPrimary(log *wal.Log, metrics *obs.ReplMetrics) {
	snap := func() ([]byte, uint64, error) {
		lsn := log.LastLSN()
		var buf bytes.Buffer
		if err := s.mon.Snapshot(&buf); err != nil {
			return nil, 0, err
		}
		return buf.Bytes(), lsn, nil
	}
	p := replication.NewPrimary(log, snap, replication.PrimaryConfig{
		Metrics:       metrics,
		RetainRecords: s.retain,
	})
	log.SetRetention(p.RetentionFloor)
	s.primary.Store(p)
}

// loadPrimary returns the installed primary, or nil with a 503 already
// written when this server is not (yet) a primary.
func (s *Server) loadPrimary(w http.ResponseWriter) *replication.Primary {
	p := s.primary.Load()
	if p == nil {
		writeErr(w, http.StatusServiceUnavailable, "not a replication primary")
	}
	return p
}

// handleReplStatus dispatches GET /repl/status to the installed primary.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if p := s.loadPrimary(w); p != nil {
		p.HandleStatus(w, r)
	}
}

// handleReplSnapshot dispatches GET /repl/snapshot to the installed
// primary.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if p := s.loadPrimary(w); p != nil {
		p.HandleSnapshot(w, r)
	}
}

// handleReplWAL dispatches GET /wal to the installed primary.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	if p := s.loadPrimary(w); p != nil {
		p.HandleWAL(w, r)
	}
}

// SetFollower marks the server a read-only replica fed by f: POST /ingest
// returns 403 (writes belong on the primary), query endpoints serve the
// replicated state normally, and /readyz and /statz report the replica's
// lag in records and seconds. metrics (optional) receives the
// stardust_repl_follower_* instruments and is merged into /metricsz. The
// caller runs f's Run loop; the server only reads its status. A replica
// whose follower keeps a mirror log (FollowerConfig.MirrorDir) can later
// be promoted to primary via Promote or POST /repl/promote.
func (s *Server) SetFollower(f *replication.Follower, metrics *obs.ReplMetrics) {
	s.follower = f
	s.replMetrics = metrics
}

// Promote turns this read replica into the primary: the follower is
// sealed (replication stops, the mirror log is synced and handed over),
// the backend attaches the mirror as its write-ahead log, ingestion
// opens, and the replication endpoints begin serving the mirror to other
// followers — their streams continue at the LSNs where the old primary
// stopped. Returns the sealed log's last LSN. Promotion is once-only;
// concurrent and repeat calls fail. On failure after sealing, the
// replica is left sealed and must be rebuilt — promotion is attempted
// only when the primary is already presumed dead, so there is no safe
// way back to following.
func (s *Server) Promote() (uint64, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.promoted.Load() {
		return 0, fmt.Errorf("server: already promoted")
	}
	if s.follower == nil {
		return 0, fmt.Errorf("server: not a replica (no follower attached)")
	}
	promoter, ok := s.mon.(walPromoter)
	if !ok {
		return 0, fmt.Errorf("server: backend %T cannot attach a WAL", s.mon)
	}
	mirror, err := s.follower.Seal()
	if err != nil {
		return 0, fmt.Errorf("server: sealing follower: %w", err)
	}
	if err := promoter.Promote(mirror); err != nil {
		_ = mirror.Close()
		return 0, fmt.Errorf("server: attaching mirror log: %w", err)
	}
	s.installPrimary(mirror, s.replMetrics)
	s.promoted.Store(true)
	lsn := mirror.LastLSN()
	if m := s.replMetrics; m != nil {
		m.Promotions.Inc()
		m.PromoteSealedLSN.Set(int64(lsn))
		m.PromoteUnixNanos.Set(time.Now().UnixNano())
	}
	return lsn, nil
}

// handlePromote is POST /repl/promote: manual (or supervisor-driven)
// failover. 503 when this server is not a replica, 409 when already
// promoted.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.follower == nil {
		writeErr(w, http.StatusServiceUnavailable, "not a replica")
		return
	}
	if s.promoted.Load() {
		writeErr(w, http.StatusConflict, "already promoted")
		return
	}
	lsn, err := s.Promote()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "sealed_lsn": lsn})
}

// replicationInfo renders the replication role for the JSON status
// endpoints: follower progress on a replica, promotion provenance on a
// promoted primary, nil on servers with no replication role. lag_seconds
// is 0 when the replica is caught up and -1 when it has never applied a
// record.
func (s *Server) replicationInfo() map[string]any {
	if s.follower == nil {
		return nil
	}
	st := s.follower.Status()
	if s.promoted.Load() {
		return map[string]any{
			"role":        "primary",
			"promoted":    true,
			"applied_lsn": st.AppliedLSN,
		}
	}
	return map[string]any{
		"role":         "follower",
		"connected":    st.Connected,
		"applied_lsn":  st.AppliedLSN,
		"primary_lsn":  st.PrimaryLSN,
		"lag_records":  st.LagRecords(),
		"lag_seconds":  st.LagSeconds(time.Now()),
		"reconnects":   st.Reconnects,
		"rebootstraps": st.Rebootstraps,
	}
}

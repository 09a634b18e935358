package obs

// ReplMetrics instruments WAL-shipping replication (internal/replication).
// One side of the struct is active per process: a primary counts what it
// serves to followers, a follower counts what it applies from its primary.
// Replication is a process-level concern, not a per-monitor one, so these
// instruments live with the replication endpoints (the HTTP server merges
// their snapshot into the monitor's on /metricsz) rather than inside
// Metrics.
type ReplMetrics struct {
	// StreamsActive is the number of replication streams currently open on
	// the primary (followers in follow mode plus bounded catch-up reads).
	StreamsActive Gauge
	// RecordsServed and BytesServed count record frames (and their framed
	// bytes) copied onto replication streams by the primary.
	RecordsServed, BytesServed Counter
	// HeartbeatsSent counts heartbeat frames the primary pushed to idle
	// followers; SnapshotsServed counts bootstrap snapshots it served.
	HeartbeatsSent, SnapshotsServed Counter

	// Connected is 1 while the follower has a live stream to its primary.
	Connected Gauge
	// RecordsApplied, SamplesApplied and BytesApplied count what the
	// follower decoded from the stream and applied to its local state.
	RecordsApplied, SamplesApplied, BytesApplied Counter
	// Reconnects counts stream re-establishments after an error or EOF;
	// Rebootstraps counts snapshot re-bootstraps forced by the primary
	// trimming past the follower's position.
	Reconnects, Rebootstraps Counter
	// AppliedLSN is the last record the follower applied; PrimaryLSN is the
	// primary's last advertised LSN; LagRecords is their difference — the
	// replica lag in records that /readyz reports.
	AppliedLSN, PrimaryLSN, LagRecords Gauge
	// LastApplyUnixNanos is the wall-clock time of the last applied record
	// or heartbeat (0 before the first), the basis of the lag-in-seconds
	// readiness signal.
	LastApplyUnixNanos Gauge

	// HealthProbes counts failover-watch probes of the primary's /healthz;
	// HealthProbeFailures counts the probes that failed (connection error,
	// timeout, or non-200).
	HealthProbes, HealthProbeFailures Counter
	// Promotions counts follower-to-primary promotions performed by this
	// process (0 or 1 in practice; a counter so restarts are visible).
	Promotions Counter
	// PromoteSealedLSN is the last LSN the follower had applied when it
	// sealed its tail for promotion; PromoteUnixNanos is the wall-clock
	// promotion time (both 0 before any promotion).
	PromoteSealedLSN, PromoteUnixNanos Gauge
}

// Snapshot captures every replication instrument at one point in time.
func (r *ReplMetrics) Snapshot() ReplSnapshot {
	return ReplSnapshot{
		StreamsActive:       r.StreamsActive.Load(),
		RecordsServed:       r.RecordsServed.Load(),
		BytesServed:         r.BytesServed.Load(),
		HeartbeatsSent:      r.HeartbeatsSent.Load(),
		SnapshotsServed:     r.SnapshotsServed.Load(),
		Connected:           r.Connected.Load(),
		RecordsApplied:      r.RecordsApplied.Load(),
		SamplesApplied:      r.SamplesApplied.Load(),
		BytesApplied:        r.BytesApplied.Load(),
		Reconnects:          r.Reconnects.Load(),
		Rebootstraps:        r.Rebootstraps.Load(),
		AppliedLSN:          r.AppliedLSN.Load(),
		PrimaryLSN:          r.PrimaryLSN.Load(),
		LagRecords:          r.LagRecords.Load(),
		LastApplyUnixNanos:  r.LastApplyUnixNanos.Load(),
		HealthProbes:        r.HealthProbes.Load(),
		HealthProbeFailures: r.HealthProbeFailures.Load(),
		Promotions:          r.Promotions.Load(),
		PromoteSealedLSN:    r.PromoteSealedLSN.Load(),
		PromoteUnixNanos:    r.PromoteUnixNanos.Load(),
	}
}

// ReplSnapshot is the replication section of a Snapshot: plain data,
// all-zero when the process neither serves nor follows a primary.
type ReplSnapshot struct {
	// StreamsActive, RecordsServed, BytesServed, HeartbeatsSent and
	// SnapshotsServed are the primary-side instruments (see ReplMetrics).
	StreamsActive                   int64
	RecordsServed, BytesServed      int64
	HeartbeatsSent, SnapshotsServed int64
	// Connected through LastApplyUnixNanos are the follower-side
	// instruments (see ReplMetrics).
	Connected                                    int64
	RecordsApplied, SamplesApplied, BytesApplied int64
	Reconnects, Rebootstraps                     int64
	AppliedLSN, PrimaryLSN, LagRecords           int64
	LastApplyUnixNanos                           int64
	// HealthProbes through PromoteUnixNanos are the automated-failover
	// instruments (see ReplMetrics).
	HealthProbes, HealthProbeFailures  int64
	Promotions                         int64
	PromoteSealedLSN, PromoteUnixNanos int64
}

// merge sums counters and takes the maximum of gauges — the conservative
// combination when a cluster of shards presents one metrics surface (in
// practice at most one side of a merge carries replication state).
func (r ReplSnapshot) merge(o ReplSnapshot) ReplSnapshot {
	maxOf := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	return ReplSnapshot{
		StreamsActive:       r.StreamsActive + o.StreamsActive,
		RecordsServed:       r.RecordsServed + o.RecordsServed,
		BytesServed:         r.BytesServed + o.BytesServed,
		HeartbeatsSent:      r.HeartbeatsSent + o.HeartbeatsSent,
		SnapshotsServed:     r.SnapshotsServed + o.SnapshotsServed,
		Connected:           maxOf(r.Connected, o.Connected),
		RecordsApplied:      r.RecordsApplied + o.RecordsApplied,
		SamplesApplied:      r.SamplesApplied + o.SamplesApplied,
		BytesApplied:        r.BytesApplied + o.BytesApplied,
		Reconnects:          r.Reconnects + o.Reconnects,
		Rebootstraps:        r.Rebootstraps + o.Rebootstraps,
		AppliedLSN:          maxOf(r.AppliedLSN, o.AppliedLSN),
		PrimaryLSN:          maxOf(r.PrimaryLSN, o.PrimaryLSN),
		LagRecords:          maxOf(r.LagRecords, o.LagRecords),
		LastApplyUnixNanos:  maxOf(r.LastApplyUnixNanos, o.LastApplyUnixNanos),
		HealthProbes:        r.HealthProbes + o.HealthProbes,
		HealthProbeFailures: r.HealthProbeFailures + o.HealthProbeFailures,
		Promotions:          r.Promotions + o.Promotions,
		PromoteSealedLSN:    maxOf(r.PromoteSealedLSN, o.PromoteSealedLSN),
		PromoteUnixNanos:    maxOf(r.PromoteUnixNanos, o.PromoteUnixNanos),
	}
}

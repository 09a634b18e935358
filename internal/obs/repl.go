package obs

// ReplMetrics instruments WAL-shipping replication (internal/replication).
// One side of the struct is active per process: a primary counts what it
// serves to followers, a follower counts what it applies from its primary.
// Replication is a process-level concern, not a per-monitor one, so these
// instruments live with the replication endpoints (the HTTP server merges
// their snapshot into the monitor's on /metricsz) rather than inside
// Metrics. Each field is documented by the help text of its series in the
// series table.
type ReplMetrics struct {
	// Primary side. StreamsActive counts followers in follow mode plus
	// bounded catch-up reads.
	StreamsActive                                               Gauge
	RecordsServed, BytesServed, HeartbeatsSent, SnapshotsServed Counter

	// Follower side. LagRecords (PrimaryLSN − AppliedLSN) is the replica
	// lag /readyz reports, and LastApplyUnixNanos is the basis of its
	// lag-in-seconds signal.
	Connected                                                              Gauge
	RecordsApplied, SamplesApplied, BytesApplied, Reconnects, Rebootstraps Counter
	AppliedLSN, PrimaryLSN, LagRecords, LastApplyUnixNanos                 Gauge

	// Automated failover. Promotions is 0 or 1 in practice; it is a counter
	// so restarts are visible.
	HealthProbes, HealthProbeFailures, Promotions Counter
	PromoteSealedLSN, PromoteUnixNanos            Gauge
}

// Snapshot captures every replication instrument at one point in time.
func (r *ReplMetrics) Snapshot() ReplSnapshot {
	var s ReplSnapshot
	replLoader.load(&s, r)
	return s
}

// ReplSnapshot is the replication section of a Snapshot: plain data,
// all-zero when the process neither serves nor follows a primary. Its
// fields mirror ReplMetrics: primary side, follower side, failover.
type ReplSnapshot struct {
	StreamsActive, RecordsServed, BytesServed, HeartbeatsSent, SnapshotsServed        int64
	Connected, RecordsApplied, SamplesApplied, BytesApplied, Reconnects, Rebootstraps int64
	AppliedLSN, PrimaryLSN, LagRecords, LastApplyUnixNanos                            int64
	HealthProbes, HealthProbeFailures, Promotions, PromoteSealedLSN, PromoteUnixNanos int64
}

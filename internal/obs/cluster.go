package obs

// ClusterMetrics instruments the router/coordinator tier (internal/cluster):
// ring topology, per-shard forwarding health, query fan-out latency and the
// partial-result/degrade path. Like replication and the TCP transport, the
// cluster is a process-level concern — the router's HTTP server merges this
// snapshot into the backend-aggregated one on /metricsz rather than
// threading it through Metrics. Each field is documented by the help text
// of its series in the series table.
type ClusterMetrics struct {
	Shards, RingVNodes, ShardsHealthy                            Gauge
	Fanouts, PartialResults, QueryFailures                       Counter
	FanoutNanos                                                  *Histogram
	IngestRetries, RingRemaps, HealthProbes, HealthProbeFailures Counter

	shards named[ShardMetrics]
}

// ShardMetrics is the per-shard slice of the cluster instrument set.
// Healthy is 1 while the shard passes its health probes and forwards.
type ShardMetrics struct {
	Healthy          Gauge
	Forwards, Errors Counter
}

// NewClusterMetrics builds a cluster instrument set with default histogram
// bounds.
func NewClusterMetrics() *ClusterMetrics {
	return &ClusterMetrics{FanoutNanos: NewHistogram(LatencyBuckets())}
}

// Shard returns the named shard's instruments, creating them on first use.
// Safe for concurrent use.
func (c *ClusterMetrics) Shard(name string) *ShardMetrics { return c.shards.row(name) }

// Snapshot captures every cluster instrument at one point in time; the
// per-shard section is sorted by shard name for stable output.
func (c *ClusterMetrics) Snapshot() ClusterSnapshot {
	var s ClusterSnapshot
	clusterLoader.load(&s, c)
	s.PerShard = snapshotRows[ClusterShardSnapshot](&c.shards, shardLoader)
	return s
}

// ClusterShardSnapshot is one shard's row in a ClusterSnapshot: the
// shard's configured name (its metric label) and fields mirroring
// ShardMetrics.
type ClusterShardSnapshot struct {
	Name                      string
	Healthy, Forwards, Errors int64
}

// ClusterSnapshot is the coordinator section of a Snapshot: plain data,
// all-zero with no shards when the process is not a router. Its scalar
// fields mirror ClusterMetrics; PerShard lists each shard's row, sorted by
// name.
type ClusterSnapshot struct {
	Shards, RingVNodes, ShardsHealthy, Fanouts               int64
	FanoutNanos                                              HistogramSnapshot
	PartialResults, QueryFailures, IngestRetries, RingRemaps int64
	HealthProbes, HealthProbeFailures                        int64
	PerShard                                                 []ClusterShardSnapshot
}

package obs

// NetMetrics instruments the binary TCP ingest tier (internal/transport):
// the connection lifecycle behind the max-conns gate, the frame and byte
// flow in each direction, the ack/nack split, and a per-request latency
// histogram. Like replication, the transport is a process-level concern —
// the HTTP server merges this snapshot into the monitor's on /metricsz
// rather than threading it through Metrics. Each field is documented by
// the help text of its series in the series table.
type NetMetrics struct {
	ConnsOpen                                       Gauge
	ConnsTotal, Handshakes, VersionMismatches       Counter
	FramesIn, FramesOut, BytesIn, BytesOut, Samples Counter
	Acks, Nacks, ProtoErrors                        Counter
	FrameNanos                                      *Histogram
}

// NewNetMetrics builds a transport instrument set with default histogram
// bounds.
func NewNetMetrics() *NetMetrics {
	return &NetMetrics{FrameNanos: NewHistogram(LatencyBuckets())}
}

// Snapshot captures every transport instrument at one point in time.
func (n *NetMetrics) Snapshot() NetSnapshot {
	var s NetSnapshot
	netLoader.load(&s, n)
	return s
}

// NetSnapshot is the binary-transport section of a Snapshot: plain data,
// all-zero when no TCP listener is mounted. Its fields mirror NetMetrics.
type NetSnapshot struct {
	ConnsOpen, ConnsTotal, Handshakes, VersionMismatches int64
	FramesIn, FramesOut, BytesIn, BytesOut, Samples      int64
	Acks, Nacks, ProtoErrors                             int64
	FrameNanos                                           HistogramSnapshot
}

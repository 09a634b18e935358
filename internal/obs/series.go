package obs

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// kind says how a series is exposed.
type kind uint8

const (
	counter kind = iota // monotone int64, a *_total series
	gauge               // instantaneous int64
	seconds             // histogram observed in nanoseconds, exposed in seconds
	raw                 // histogram already in its exposition unit (counts)
	ratio               // a query class's pruning power, derived from its counters (not merged)
)

var promTypes = [...]string{counter: "counter", gauge: "gauge", seconds: "histogram", raw: "histogram", ratio: "gauge"}

// rule says how Merge combines a scalar from two snapshots. Histograms
// always merge bucket-wise, and counters are always summed.
type rule uint8

const (
	sum     rule = iota
	maximum      // for gauges every process of a fleet reports alike
)

// series is one row of the table: one Prometheus name, its help text, how
// it is exposed and merged, and where its value lives in Snapshot.
//
// path names the value as dotted Snapshot fields. A {key} element makes
// the row a labelled family. After a slice field
// ("Tenant.PerTenant{tenant}.Streams") it ranges over the slice's rows,
// labelled by each row's Name, and Merge matches rows by name. Anywhere
// else ("{class}.Queries", "Watch.Active{kind}") it stands in turn for
// Aggregate, Pattern and Correlation, labelled in lower case.
type series struct {
	name, help string
	kind       kind
	rule       rule
	path       string
}

// entry is a series with its path resolved against Snapshot at init.
type entry struct {
	series
	key string // label key of a family, "" for a plain series
	at  []loc
}

// loc is one resolved place of a series' values in Snapshot.
type loc struct {
	path  string // dotted field path with {key} removed or expanded
	label string // label value of a fixed family member
	index []int  // field indexes from Snapshot to the value, or to the row slice
	row   []int  // keyed families: field indexes from a row to the value
}

// table lists every series /metricsz exposes, in exposition order. It
// drives WriteProm, Snapshot.Merge and the live-to-snapshot copies.
var table = []series{
	{"stardust_ingest_samples_total", "Ingestion attempts seen by the instrumented path.", counter, sum, "Ingest.Samples"},
	{"stardust_ingest_accepted_total", "Samples admitted unmodified by the resilience guard.", counter, sum, "Ingest.Accepted"},
	{"stardust_ingest_repaired_total", "Samples admitted after policy repair (clamped or gap-filled).", counter, sum, "Ingest.Repaired"},
	{"stardust_ingest_rejected_total", "Samples dropped with a typed error.", counter, sum, "Ingest.Rejected"},
	{"stardust_ingest_quarantined_streams", "Streams currently quarantined by the guard.", gauge, sum, "Ingest.QuarantinedStreams"},
	{"stardust_ingest_quarantine_trips_total", "Quiet-to-quarantined transitions since start.", counter, sum, "Ingest.QuarantineTrips"},
	{"stardust_ingest_append_latency_seconds", "Sampled per-append latency (one append in 64 is timed).", seconds, sum, "Ingest.AppendNanos"},
	{"stardust_ingest_batches_total", "IngestBatch invocations (amortized batch fast path).", counter, sum, "Ingest.Batches"},
	{"stardust_ingest_batch_size", "Samples per IngestBatch invocation.", raw, sum, "Ingest.BatchSize"},
	{"stardust_parallel_workers", "Configured query worker-pool width (1 = serial).", gauge, maximum, "Parallel.Workers"},
	{"stardust_parallel_rounds_total", "Query stages fanned out across the worker pool.", counter, sum, "Parallel.Rounds"},
	{"stardust_parallel_serial_rounds_total", "Query stages executed inline (serial path or too few items).", counter, sum, "Parallel.SerialRounds"},
	{"stardust_parallel_tasks_total", "Work items processed by query stages (both paths).", counter, sum, "Parallel.Tasks"},
	{"stardust_parallel_queue_depth", "Items enqueued per parallel round (divide by workers for per-worker share).", raw, sum, "Parallel.QueueDepth"},
	{"stardust_parallel_stage_latency_seconds", "Wall time per parallel round (screening/verification stage latency).", seconds, sum, "Parallel.StageNanos"},
	{"stardust_wal_appends_total", "Write-ahead-log records appended (0 when durability is off).", counter, sum, "WAL.Appends"},
	{"stardust_wal_appended_bytes_total", "Framed bytes appended to the write-ahead log.", counter, sum, "WAL.AppendedBytes"},
	{"stardust_wal_fsyncs_total", "WAL fsync calls.", counter, sum, "WAL.Fsyncs"},
	{"stardust_wal_fsync_latency_seconds", "WAL fsync latency.", seconds, sum, "WAL.FsyncNanos"},
	{"stardust_wal_group_commit_records", "Records made durable per fsync (group-commit batch size).", raw, sum, "WAL.GroupCommit"},
	{"stardust_wal_rotations_total", "WAL segment rollovers.", counter, sum, "WAL.Rotations"},
	{"stardust_wal_segments_live", "WAL segment files currently on disk.", gauge, sum, "WAL.SegmentsLive"},
	{"stardust_wal_segments_trimmed_total", "WAL segments removed by snapshot-watermark GC.", counter, sum, "WAL.SegmentsTrimmed"},
	{"stardust_wal_replayed_records_total", "WAL records applied by crash-recovery replay.", counter, sum, "WAL.ReplayedRecords"},
	{"stardust_wal_replayed_samples_total", "Samples applied by crash-recovery replay.", counter, sum, "WAL.ReplayedSamples"},
	{"stardust_wal_replay_duration_nanos", "Wall time of the most recent WAL replay (0 when none ran).", gauge, maximum, "WAL.ReplayNanos"},
	{"stardust_wal_degraded", "1 while the WAL is detached from a failing disk and ingest is in-memory only.", gauge, maximum, "WAL.Degraded"},
	{"stardust_wal_dropped_appends_total", "Records dropped (kept in memory only) while the WAL was degraded.", counter, sum, "WAL.DroppedAppends"},
	{"stardust_wal_write_retries_total", "Segment-write retries after transient disk errors.", counter, sum, "WAL.WriteRetries"},
	{"stardust_wal_reattaches_total", "Recoveries from degraded mode back to an on-disk segment.", counter, sum, "WAL.Reattaches"},
	{"stardust_watch_active", "Standing watches currently registered, by kind.", gauge, sum, "Watch.Active{kind}"},
	{"stardust_watch_installs_total", "Standing-watch registrations (spec reloads show as paired bursts).", counter, sum, "Watch.Installs"},
	{"stardust_watch_uninstalls_total", "Standing-watch removals.", counter, sum, "Watch.Uninstalls"},
	{"stardust_watch_events_fired_total", "Standing-query events delivered (alarms, matches, pairs).", counter, sum, "Watch.Fired"},
	{"stardust_watch_events_cleared_total", "Aggregate-cleared events delivered (edge-triggered watches).", counter, sum, "Watch.Cleared"},
	{"stardust_watch_evaluations_total", "Standing-query evaluation passes (one per admitted push).", counter, sum, "Watch.Evaluations"},
	{"stardust_watch_evaluate_latency_seconds", "Sampled wall time of one standing-query evaluation pass.", seconds, sum, "Watch.EvaluateNanos"},
	{"stardust_tenant_streams", "Stream-space width allocated to the labeled tenant.", gauge, maximum, "Tenant.PerTenant{tenant}.Streams"},
	{"stardust_tenant_samples_total", "Ingestion attempts admitted into the labeled tenant's quota checks.", counter, sum, "Tenant.PerTenant{tenant}.Samples"},
	{"stardust_tenant_rejected_total", "Samples refused by the stream quota or the backend guard.", counter, sum, "Tenant.PerTenant{tenant}.Rejected"},
	{"stardust_tenant_rate_limited_total", "Samples refused by the tenant's ingest-rate quota.", counter, sum, "Tenant.PerTenant{tenant}.RateLimited"},
	{"stardust_tenant_watches_active", "Standing watches currently installed for the labeled tenant.", gauge, sum, "Tenant.PerTenant{tenant}.WatchesActive"},
	{"stardust_tenant_events_total", "Standing-query events attributed to the labeled tenant.", counter, sum, "Tenant.PerTenant{tenant}.Events"},
	{"stardust_repl_primary_streams_active", "Replication streams currently open on the primary.", gauge, sum, "Repl.StreamsActive"},
	{"stardust_repl_primary_records_served_total", "WAL record frames copied onto replication streams.", counter, sum, "Repl.RecordsServed"},
	{"stardust_repl_primary_bytes_served_total", "Framed bytes copied onto replication streams.", counter, sum, "Repl.BytesServed"},
	{"stardust_repl_primary_heartbeats_sent_total", "Heartbeat frames pushed to idle followers.", counter, sum, "Repl.HeartbeatsSent"},
	{"stardust_repl_primary_snapshots_served_total", "Bootstrap snapshots served to followers.", counter, sum, "Repl.SnapshotsServed"},
	{"stardust_repl_follower_connected", "1 while the follower has a live stream to its primary.", gauge, maximum, "Repl.Connected"},
	{"stardust_repl_follower_records_applied_total", "WAL records applied from the replication stream.", counter, sum, "Repl.RecordsApplied"},
	{"stardust_repl_follower_samples_applied_total", "Samples applied from the replication stream.", counter, sum, "Repl.SamplesApplied"},
	{"stardust_repl_follower_bytes_applied_total", "Framed bytes decoded from the replication stream.", counter, sum, "Repl.BytesApplied"},
	{"stardust_repl_follower_reconnects_total", "Replication stream re-establishments after an error or EOF.", counter, sum, "Repl.Reconnects"},
	{"stardust_repl_follower_rebootstraps_total", "Snapshot re-bootstraps forced by the primary trimming past the follower.", counter, sum, "Repl.Rebootstraps"},
	{"stardust_repl_follower_applied_lsn", "Last WAL record the follower applied.", gauge, maximum, "Repl.AppliedLSN"},
	{"stardust_repl_follower_primary_lsn", "Primary's last advertised WAL record.", gauge, maximum, "Repl.PrimaryLSN"},
	{"stardust_repl_follower_lag_records", "Replica lag in WAL records (primary LSN minus applied LSN).", gauge, maximum, "Repl.LagRecords"},
	{"stardust_repl_follower_last_apply_unix_nanos", "Wall-clock time of the last applied record or heartbeat (0 before the first).", gauge, maximum, "Repl.LastApplyUnixNanos"},
	{"stardust_repl_health_probes_total", "Failover-watch probes of the primary's /healthz.", counter, sum, "Repl.HealthProbes"},
	{"stardust_repl_health_probe_failures_total", "Failed failover-watch probes (connection error, timeout, or non-200).", counter, sum, "Repl.HealthProbeFailures"},
	{"stardust_repl_promote_total", "Follower-to-primary promotions performed by this process.", counter, sum, "Repl.Promotions"},
	{"stardust_repl_promote_sealed_lsn", "Last applied LSN at the moment the follower sealed its tail for promotion.", gauge, maximum, "Repl.PromoteSealedLSN"},
	{"stardust_repl_promote_unix_nanos", "Wall-clock time of the promotion (0 before any).", gauge, maximum, "Repl.PromoteUnixNanos"},
	{"stardust_net_conns_open", "Binary TCP ingest connections currently open.", gauge, sum, "Net.ConnsOpen"},
	{"stardust_net_conns_total", "Binary TCP ingest connections accepted since start.", counter, sum, "Net.ConnsTotal"},
	{"stardust_net_handshakes_total", "Completed wire-protocol handshakes.", counter, sum, "Net.Handshakes"},
	{"stardust_net_version_mismatches_total", "Hellos nacked for an unknown protocol version.", counter, sum, "Net.VersionMismatches"},
	{"stardust_net_frames_in_total", "Wire frames read from clients.", counter, sum, "Net.FramesIn"},
	{"stardust_net_frames_out_total", "Wire frames written to clients.", counter, sum, "Net.FramesOut"},
	{"stardust_net_bytes_in_total", "Framed bytes read from clients.", counter, sum, "Net.BytesIn"},
	{"stardust_net_bytes_out_total", "Framed bytes written to clients.", counter, sum, "Net.BytesOut"},
	{"stardust_net_samples_total", "Sample values admitted over the binary wire.", counter, sum, "Net.Samples"},
	{"stardust_net_acks_total", "Requests acknowledged.", counter, sum, "Net.Acks"},
	{"stardust_net_nacks_total", "Requests rejected with a nack.", counter, sum, "Net.Nacks"},
	{"stardust_net_proto_errors_total", "Nacks that closed the connection (malformed, oversized, or corrupt frames).", counter, sum, "Net.ProtoErrors"},
	{"stardust_net_frame_latency_seconds", "Server-side wall time from request frame arrival to response write.", seconds, sum, "Net.FrameNanos"},
	{"stardust_fault_rules_armed", "Fault-injection rules currently loaded (0 in production).", gauge, maximum, "Fault.RulesArmed"},
	{"stardust_fault_evals_total", "Fault injection-point evaluations.", counter, sum, "Fault.Evals"},
	{"stardust_fault_injected_total", "Faults actually injected (errors, delays, torn writes, cut links).", counter, sum, "Fault.Injected"},
	{"stardust_cluster_shards", "Shards configured on the router's consistent-hash ring (0 when not a router).", gauge, maximum, "Cluster.Shards"},
	{"stardust_cluster_ring_vnodes", "Virtual nodes on the consistent-hash ring.", gauge, maximum, "Cluster.RingVNodes"},
	{"stardust_cluster_shards_healthy", "Shards that passed their most recent health probe.", gauge, maximum, "Cluster.ShardsHealthy"},
	{"stardust_cluster_fanouts_total", "Scatter-gather query rounds fanned out to the shards.", counter, sum, "Cluster.Fanouts"},
	{"stardust_cluster_fanout_latency_seconds", "Wall time of a full scatter-gather round (slowest shard dominates).", seconds, sum, "Cluster.FanoutNanos"},
	{"stardust_cluster_partial_results_total", "Query rounds answered from a subset of shards under the degrade policy.", counter, sum, "Cluster.PartialResults"},
	{"stardust_cluster_query_failures_total", "Scatter-gather rounds that returned an error to the caller.", counter, sum, "Cluster.QueryFailures"},
	{"stardust_cluster_ingest_retries_total", "Forwarded ingest attempts beyond the first (retry/backoff path).", counter, sum, "Cluster.IngestRetries"},
	{"stardust_cluster_ring_remaps_total", "Shard join/leave events that rebuilt the ring.", counter, sum, "Cluster.RingRemaps"},
	{"stardust_cluster_health_probes_total", "Background shard health probes.", counter, sum, "Cluster.HealthProbes"},
	{"stardust_cluster_health_probe_failures_total", "Background shard health probes that failed.", counter, sum, "Cluster.HealthProbeFailures"},
	{"stardust_cluster_shard_healthy", "1 while the labeled shard is passing health probes and forwards.", gauge, maximum, "Cluster.PerShard{shard}.Healthy"},
	{"stardust_cluster_shard_forwards_total", "Ingest requests forwarded to the labeled shard.", counter, sum, "Cluster.PerShard{shard}.Forwards"},
	{"stardust_cluster_shard_errors_total", "Forwards and query legs that failed against the labeled shard.", counter, sum, "Cluster.PerShard{shard}.Errors"},
	{"stardust_index_inserts_total", "R*-tree leaf entries inserted (all levels).", counter, sum, "Tree.Inserts"},
	{"stardust_index_deletes_total", "R*-tree leaf entries deleted (all levels).", counter, sum, "Tree.Deletes"},
	{"stardust_index_searches_total", "R*-tree search traversals (range, sphere, nearest-neighbor).", counter, sum, "Tree.Searches"},
	{"stardust_index_node_reads_total", "R*-tree nodes visited by any operation — the paper's index cost unit.", counter, sum, "Tree.NodeReads"},
	{"stardust_index_node_writes_total", "R*-tree nodes structurally modified.", counter, sum, "Tree.NodeWrites"},
	{"stardust_index_splits_total", "R*-tree node splits.", counter, sum, "Tree.Splits"},
	{"stardust_index_reinserts_total", "R*-tree forced-reinsertion rounds (OverflowTreatment).", counter, sum, "Tree.Reinserts"},
	{"stardust_index_search_nodes", "Nodes read per search traversal.", raw, sum, "Tree.SearchNodes"},
	{"stardust_query_total", "Query invocations per class.", counter, sum, "{class}.Queries"},
	{"stardust_query_candidates_total", "Records retrieved by the index screen before verification.", counter, sum, "{class}.Candidates"},
	{"stardust_query_verified_total", "Screened records confirmed on raw history.", counter, sum, "{class}.Verified"},
	{"stardust_query_pruning_power", "Verified over candidates (the paper's precision; 1 when nothing retrieved).", ratio, sum, "{class}"},
	{"stardust_query_latency_seconds", "Per-query wall time.", seconds, sum, "{class}.Latency"},
}

// entries is table resolved, in the same order.
var entries = make([]entry, len(table))

var queryClasses = []string{"Aggregate", "Pattern", "Correlation"}

// rowSet is a keyed family's row slice with the entries that read it.
type rowSet struct {
	index   []int
	entries []*entry
}

var (
	// rowSets holds the keyed families by the path of their row slice.
	rowSets = map[string]*rowSet{}

	// Loaders copy each live instrument set into its snapshot section.
	metricsLoader, replLoader, netLoader     loader
	clusterLoader, shardLoader, tenantLoader loader
)

// init resolves every table path against Snapshot, then builds the
// loaders from the resolved paths.
func init() {
	st := reflect.TypeFor[Snapshot]()
	for i := range table {
		e := &entries[i]
		e.series = table[i]
		open, end := strings.IndexByte(e.path, '{'), strings.IndexByte(e.path, '}')
		if open < 0 {
			e.at = []loc{{path: e.path, index: mustField(st, e.path)}}
			continue
		}
		e.key = e.path[open+1 : end]
		pre, post := e.path[:open], e.path[end+1:]
		if index, typ, ok := field(st, pre); ok && typ.Kind() == reflect.Slice {
			e.at = []loc{{path: pre + post, index: index, row: mustField(typ.Elem(), post[1:])}}
			if rowSets[pre] == nil {
				rowSets[pre] = &rowSet{index: index}
			}
			rowSets[pre].entries = append(rowSets[pre].entries, e)
			continue
		}
		for _, c := range queryClasses {
			p := pre + c + post
			e.at = append(e.at, loc{path: p, label: strings.ToLower(c), index: mustField(st, p)})
		}
	}
	metricsLoader = newLoader[Metrics, Snapshot]("")
	replLoader = newLoader[ReplMetrics, ReplSnapshot]("Repl.")
	netLoader = newLoader[NetMetrics, NetSnapshot]("Net.")
	clusterLoader = newLoader[ClusterMetrics, ClusterSnapshot]("Cluster.")
	shardLoader = newLoader[ShardMetrics, ClusterShardSnapshot]("Cluster.PerShard.")
	tenantLoader = newLoader[TenantInstruments, TenantSnapshot]("Tenant.PerTenant.")
}

// field resolves a dotted field path in t.
func field(t reflect.Type, path string) (index []int, typ reflect.Type, ok bool) {
	for _, name := range strings.Split(path, ".") {
		if t.Kind() != reflect.Struct {
			return nil, nil, false
		}
		f, ok := t.FieldByName(name)
		if !ok {
			return nil, nil, false
		}
		index, t = append(index, f.Index...), f.Type
	}
	return index, t, true
}

// mustField is field for the table's own paths: a misspelt path panics
// at init, so any test run catches it.
func mustField(t reflect.Type, path string) []int {
	index, _, ok := field(t, path)
	if !ok {
		panic(fmt.Sprintf("obs: series path %q names no field of %v", path, t))
	}
	return index
}

// SeriesNames lists the name of every series /metricsz can expose, in
// exposition order. The RUNBOOK metric catalogue is checked against it.
func SeriesNames() []string {
	names := make([]string, len(table))
	for i := range table {
		names[i] = table[i].name
	}
	return names
}

// loader copies live instruments (Counter, Gauge, *Histogram) into the
// same-named fields of a snapshot struct: one pair of field indexes per
// table path under the loader's prefix that the live struct carries.
// Other fields on a path (a query class's QueryMetrics) are skipped.
type loader []struct{ src, dst []int }

func newLoader[Live, Snap any](prefix string) loader {
	var l loader
	for i := range entries {
		for _, at := range entries[i].at {
			rest, ok := strings.CutPrefix(at.path, prefix)
			if !ok {
				continue
			}
			if src, _, ok := field(reflect.TypeFor[Live](), rest); ok {
				l = append(l, struct{ src, dst []int }{src, mustField(reflect.TypeFor[Snap](), rest)})
			}
		}
	}
	return l
}

// load fills *dst from the instruments in *src.
func (l loader) load(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for _, f := range l {
		out := d.FieldByIndex(f.dst)
		switch in := s.FieldByIndex(f.src).Addr().Interface().(type) {
		case *Counter:
			out.SetInt(in.Load())
		case *Gauge:
			out.SetInt(in.Load())
		case **Histogram:
			out.Set(reflect.ValueOf((*in).Snapshot()))
		}
	}
}

// named is a set of instrument rows keyed by name, each created on first
// use: the live side of the tenant and per-shard families.
type named[T any] struct {
	mu   sync.Mutex
	rows map[string]*T
}

// row returns the named row, creating it on first use. Safe for
// concurrent use.
func (n *named[T]) row(name string) *T {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.rows[name]
	if !ok {
		if n.rows == nil {
			n.rows = make(map[string]*T)
		}
		r = new(T)
		n.rows[name] = r
	}
	return r
}

// snapshotRows copies every row of n through l into a snapshot row that
// carries the row's name, sorted by name for stable exposition output.
func snapshotRows[S, T any](n *named[T], l loader) []S {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.rows))
	for name := range n.rows {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]S, len(names))
	for i, name := range names {
		reflect.ValueOf(&out[i]).Elem().FieldByName("Name").SetString(name)
		l.load(&out[i], n.rows[name])
	}
	return out
}

// Merge combines two snapshots series by series, by each row's rule:
// counters sum, gauges sum or keep the maximum, histograms merge
// bucket-wise, and tenant and shard rows merge by name. The cluster
// coordinator uses it to present its shards as one metrics surface.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s
	d, a, b := reflect.ValueOf(&out).Elem(), reflect.ValueOf(s), reflect.ValueOf(o)
	for i := range entries {
		t := &entries[i]
		for _, at := range t.at {
			if at.row == nil && t.kind != ratio {
				combine(d.FieldByIndex(at.index), a.FieldByIndex(at.index), b.FieldByIndex(at.index), t.rule)
			}
		}
	}
	for _, r := range rowSets {
		d.FieldByIndex(r.index).Set(r.merge(a.FieldByIndex(r.index), b.FieldByIndex(r.index)))
	}
	return out
}

// combine stores the merge of x and y in dst.
func combine(dst, x, y reflect.Value, r rule) {
	if h, ok := x.Interface().(HistogramSnapshot); ok {
		dst.Set(reflect.ValueOf(h.merge(y.Interface().(HistogramSnapshot))))
		return
	}
	if r == maximum {
		dst.SetInt(max(x.Int(), y.Int()))
	} else {
		dst.SetInt(x.Int() + y.Int())
	}
}

// merge combines two row slices by row name, sorted by name. When one
// side has no rows the other is returned as it is.
func (r *rowSet) merge(a, b reflect.Value) reflect.Value {
	if b.Len() == 0 {
		return a
	}
	if a.Len() == 0 {
		return b
	}
	name := func(row reflect.Value) string { return row.FieldByName("Name").String() }
	out := reflect.AppendSlice(reflect.MakeSlice(a.Type(), 0, a.Len()+b.Len()), a)
	at := make(map[string]int, a.Len())
	for i := 0; i < a.Len(); i++ {
		at[name(a.Index(i))] = i
	}
	for j := 0; j < b.Len(); j++ {
		row := b.Index(j)
		i, ok := at[name(row)]
		if !ok {
			out = reflect.Append(out, row)
			continue
		}
		prev := out.Index(i)
		for _, e := range r.entries {
			f := e.at[0].row
			combine(prev.FieldByIndex(f), prev.FieldByIndex(f), row.FieldByIndex(f), e.rule)
		}
	}
	sort.Slice(out.Interface(), func(i, j int) bool { return name(out.Index(i)) < name(out.Index(j)) })
	return out
}

// WriteProm renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4): counters as *_total series, latency histograms in
// seconds with cumulative le buckets, and per-query-class series labeled
// {class="aggregate"|"pattern"|"correlation"}. It is the payload of the
// server's GET /metricsz endpoint.
func WriteProm(w io.Writer, s Snapshot) error {
	p := promWriter{w: w}
	v := reflect.ValueOf(s)
	for i := range entries {
		t := &entries[i]
		var labels []string
		var values []reflect.Value
		for _, at := range t.at {
			f := v.FieldByIndex(at.index)
			if at.row == nil {
				labels, values = append(labels, at.label), append(values, f)
				continue
			}
			for j := 0; j < f.Len(); j++ {
				labels = append(labels, f.Index(j).FieldByName("Name").String())
				values = append(values, f.Index(j).FieldByIndex(at.row))
			}
		}
		if len(values) == 0 {
			continue // a keyed family with no rows is not exposed
		}
		p.printf("# HELP %s %s\n# TYPE %s %s\n", t.name, t.help, t.name, promTypes[t.kind])
		for j, val := range values {
			p.sample(t, labels[j], val)
		}
	}
	return p.err
}

// promWriter accumulates the first write error so callers check once.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// sample writes one value of series t, labelled label when t is a family.
func (p *promWriter) sample(t *entry, label string, v reflect.Value) {
	switch t.kind {
	case seconds:
		p.histogram(t.name, t.key, label, v.Interface().(HistogramSnapshot), 1e-9)
		return
	case raw:
		p.histogram(t.name, t.key, label, v.Interface().(HistogramSnapshot), 1)
		return
	}
	name := t.name
	if t.key != "" {
		name += fmt.Sprintf("{%s=%q}", t.key, label)
	}
	switch {
	case t.kind == ratio:
		p.printf("%s %s\n", name, formatFloat(v.Interface().(QuerySnapshot).PruningPower()))
	case t.key == "class":
		// The class families share pruning power's float format.
		p.printf("%s %s\n", name, formatFloat(float64(v.Int())))
	default:
		p.printf("%s %d\n", name, v.Int())
	}
}

// histogram renders h with bounds and sum multiplied by scale (1e-9 turns
// nanoseconds into seconds, per Prometheus convention).
func (p *promWriter) histogram(name, labelKey, labelVal string, h HistogramSnapshot, scale float64) {
	label := func(le string) string {
		if labelKey == "" {
			return fmt.Sprintf(`{le=%q}`, le)
		}
		return fmt.Sprintf(`{%s=%q,le=%q}`, labelKey, labelVal, le)
	}
	cum := int64(0)
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		p.printf("%s_bucket%s %d\n", name, label(formatFloat(bound*scale)), cum)
	}
	p.printf("%s_bucket%s %d\n", name, label("+Inf"), h.Count)
	suffix := ""
	if labelKey != "" {
		suffix = fmt.Sprintf(`{%s=%q}`, labelKey, labelVal)
	}
	p.printf("%s_sum%s %s\n", name, suffix, formatFloat(h.Sum*scale))
	p.printf("%s_count%s %d\n", name, suffix, h.Count)
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, no exponent for integers.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

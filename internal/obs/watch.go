package obs

import (
	"sort"
	"sync"
)

// WatchMetrics instruments the standing-query engine (the Watcher): how
// many watches of each kind are active, how many events they fired and
// cleared, and how long one evaluation pass takes. The evaluation pass
// runs on every push, so its latency is sampled like per-append latency
// (one pass in SampleEvery is timed) to keep the ingest hot path cheap.
type WatchMetrics struct {
	// ActiveAggregate, ActivePattern and ActiveCorrelation are the
	// standing watches currently registered, by kind.
	ActiveAggregate, ActivePattern, ActiveCorrelation Gauge
	// Installs and Uninstalls count watch registrations and removals
	// (spec reloads show up as paired bursts).
	Installs, Uninstalls Counter
	// Fired counts events delivered (aggregate alarms, pattern matches,
	// correlation pairs); Cleared counts aggregate-cleared events.
	Fired, Cleared Counter
	// Evaluations counts evaluation passes (one per admitted push);
	// EvaluateNanos is the sampled wall time of one pass.
	Evaluations   Counter
	EvaluateNanos *Histogram
}

// WatchSnapshot is the standing-query section of a Snapshot: all-zero when
// no watcher is attached.
type WatchSnapshot struct {
	// ActiveAggregate, ActivePattern and ActiveCorrelation count the
	// registered watches by kind.
	ActiveAggregate, ActivePattern, ActiveCorrelation int64
	// Installs and Uninstalls count registrations and removals.
	Installs, Uninstalls int64
	// Fired and Cleared count delivered and cleared events.
	Fired, Cleared int64
	// Evaluations counts evaluation passes; EvaluateNanos is the sampled
	// per-pass latency distribution.
	Evaluations   int64
	EvaluateNanos HistogramSnapshot
}

// merge sums the two sides (a cluster presents one surface).
func (w WatchSnapshot) merge(o WatchSnapshot) WatchSnapshot {
	return WatchSnapshot{
		ActiveAggregate:   w.ActiveAggregate + o.ActiveAggregate,
		ActivePattern:     w.ActivePattern + o.ActivePattern,
		ActiveCorrelation: w.ActiveCorrelation + o.ActiveCorrelation,
		Installs:          w.Installs + o.Installs,
		Uninstalls:        w.Uninstalls + o.Uninstalls,
		Fired:             w.Fired + o.Fired,
		Cleared:           w.Cleared + o.Cleared,
		Evaluations:       w.Evaluations + o.Evaluations,
		EvaluateNanos:     w.EvaluateNanos.merge(o.EvaluateNanos),
	}
}

// TenantMetrics instruments the multi-tenant serving tier
// (internal/tenant): one labeled instrument row per tenant, surfaced as
// the stardust_tenant_* series on /metricsz. Like the cluster and
// replication instrument sets it is a process-level concern — the server
// merges its snapshot into the backend-aggregated one.
type TenantMetrics struct {
	mu       sync.Mutex
	byName   map[string]*TenantInstruments
	ordering []string
}

// TenantInstruments is one tenant's instrument row.
type TenantInstruments struct {
	// Streams is the tenant's allocated stream-space width.
	Streams Gauge
	// Samples counts ingestion attempts admitted into the quota/rate
	// checks; Rejected counts samples refused by the backend guard or the
	// stream quota; RateLimited counts samples refused by the ingest rate
	// quota.
	Samples, Rejected, RateLimited Counter
	// WatchesActive is the tenant's currently installed standing watches.
	WatchesActive Gauge
	// Events counts standing-query events attributed to the tenant.
	Events Counter
}

// NewTenantMetrics builds an empty per-tenant instrument set.
func NewTenantMetrics() *TenantMetrics {
	return &TenantMetrics{byName: make(map[string]*TenantInstruments)}
}

// Tenant returns the named tenant's instruments, creating them on first
// use. Safe for concurrent use.
func (t *TenantMetrics) Tenant(name string) *TenantInstruments {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.byName[name]
	if !ok {
		row = &TenantInstruments{}
		t.byName[name] = row
		t.ordering = append(t.ordering, name)
	}
	return row
}

// Snapshot captures every tenant row at one point in time, sorted by
// tenant name for stable exposition output.
func (t *TenantMetrics) Snapshot() TenantsSnapshot {
	t.mu.Lock()
	rows := make([]TenantSnapshot, 0, len(t.ordering))
	for _, name := range t.ordering {
		r := t.byName[name]
		rows = append(rows, TenantSnapshot{
			Name:          name,
			Streams:       r.Streams.Load(),
			Samples:       r.Samples.Load(),
			Rejected:      r.Rejected.Load(),
			RateLimited:   r.RateLimited.Load(),
			WatchesActive: r.WatchesActive.Load(),
			Events:        r.Events.Load(),
		})
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return TenantsSnapshot{PerTenant: rows}
}

// TenantSnapshot is one tenant's row in a TenantsSnapshot.
type TenantSnapshot struct {
	// Name is the tenant's configured name (its metric label).
	Name string
	// Streams through Events mirror TenantInstruments.
	Streams                        int64
	Samples, Rejected, RateLimited int64
	WatchesActive                  int64
	Events                         int64
}

// TenantsSnapshot is the multi-tenant section of a Snapshot: empty when
// the process serves no tenants.
type TenantsSnapshot struct {
	// PerTenant lists each tenant's quota usage and traffic, sorted by
	// name.
	PerTenant []TenantSnapshot
}

// merge combines the per-tenant rows by name: counters sum, the width
// gauge keeps the maximum (every process of a fleet sees the same quota).
func (t TenantsSnapshot) merge(o TenantsSnapshot) TenantsSnapshot {
	if len(o.PerTenant) == 0 {
		return t
	}
	if len(t.PerTenant) == 0 {
		return o
	}
	byName := make(map[string]TenantSnapshot, len(t.PerTenant)+len(o.PerTenant))
	for _, r := range t.PerTenant {
		byName[r.Name] = r
	}
	for _, r := range o.PerTenant {
		if prev, ok := byName[r.Name]; ok {
			if prev.Streams > r.Streams {
				r.Streams = prev.Streams
			}
			r.Samples += prev.Samples
			r.Rejected += prev.Rejected
			r.RateLimited += prev.RateLimited
			r.WatchesActive += prev.WatchesActive
			r.Events += prev.Events
		}
		byName[r.Name] = r
	}
	rows := make([]TenantSnapshot, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return TenantsSnapshot{PerTenant: rows}
}

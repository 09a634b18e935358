package obs

// WatchMetrics instruments the standing-query engine (the Watcher): how
// many watches of each kind are active, how many events they fired and
// cleared, and how long one evaluation pass takes. The evaluation pass
// runs on every push, so its latency is sampled like per-append latency
// (one pass in SampleEvery is timed) to keep the ingest hot path cheap.
// Each field is documented by the help text of its series in the series
// table.
type WatchMetrics struct {
	ActiveAggregate, ActivePattern, ActiveCorrelation Gauge
	Installs, Uninstalls, Fired, Cleared, Evaluations Counter
	EvaluateNanos                                     *Histogram
}

// WatchSnapshot is the standing-query section of a Snapshot: all-zero when
// no watcher is attached. Its fields mirror WatchMetrics.
type WatchSnapshot struct {
	ActiveAggregate, ActivePattern, ActiveCorrelation int64
	Installs, Uninstalls, Fired, Cleared, Evaluations int64
	EvaluateNanos                                     HistogramSnapshot
}

// TenantMetrics instruments the multi-tenant serving tier
// (internal/tenant): one labeled instrument row per tenant, surfaced as
// the stardust_tenant_* series on /metricsz. Like the cluster and
// replication instrument sets it is a process-level concern — the server
// merges its snapshot into the backend-aggregated one.
type TenantMetrics struct{ rows named[TenantInstruments] }

// TenantInstruments is one tenant's instrument row. Each field is
// documented by the help text of its series in the series table.
type TenantInstruments struct {
	Streams                        Gauge
	Samples, Rejected, RateLimited Counter
	WatchesActive                  Gauge
	Events                         Counter
}

// NewTenantMetrics builds an empty per-tenant instrument set.
func NewTenantMetrics() *TenantMetrics {
	return &TenantMetrics{}
}

// Tenant returns the named tenant's instruments, creating them on first
// use. Safe for concurrent use.
func (t *TenantMetrics) Tenant(name string) *TenantInstruments { return t.rows.row(name) }

// Snapshot captures every tenant row at one point in time, sorted by
// tenant name for stable exposition output.
func (t *TenantMetrics) Snapshot() TenantsSnapshot {
	return TenantsSnapshot{PerTenant: snapshotRows[TenantSnapshot](&t.rows, tenantLoader)}
}

// TenantSnapshot is one tenant's row in a TenantsSnapshot: the tenant's
// configured name (its metric label) and fields mirroring
// TenantInstruments.
type TenantSnapshot struct {
	Name                                                           string
	Streams, Samples, Rejected, RateLimited, WatchesActive, Events int64
}

// TenantsSnapshot is the multi-tenant section of a Snapshot: empty when
// the process serves no tenants.
type TenantsSnapshot struct {
	// PerTenant lists each tenant's quota usage and traffic, sorted by
	// name.
	PerTenant []TenantSnapshot
}

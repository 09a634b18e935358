package obs

import (
	"reflect"
	"testing"
)

// move bumps every live instrument in the struct v points into, recursing
// into nested instrument sets, and returns how many it moved.
func move(v reflect.Value) int {
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch in := v.Field(i).Addr().Interface().(type) {
		case *Counter:
			in.Inc()
		case *Gauge:
			in.Set(1)
		case **Histogram:
			(*in).Observe(1)
		default:
			if v.Field(i).Kind() == reflect.Struct {
				n += move(v.Field(i))
			}
			continue
		}
		n++
	}
	return n
}

// zeros lists the paths of every int64 and HistogramSnapshot under v that
// is still zero, skipping the names in skip.
func zeros(v reflect.Value, path string, skip map[string]bool) []string {
	if skip[path] {
		return nil
	}
	switch {
	case v.Type() == reflect.TypeOf(HistogramSnapshot{}):
		if v.Interface().(HistogramSnapshot).Count == 0 {
			return []string{path}
		}
	case v.Kind() == reflect.Int64:
		if v.Int() == 0 {
			return []string{path}
		}
	case v.Kind() == reflect.Slice:
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, zeros(v.Index(i), path, skip)...)
		}
		return out
	case v.Kind() == reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, zeros(v.Field(i), path+"."+v.Type().Field(i).Name, skip)...)
		}
		return out
	}
	return nil
}

// TestSnapshotCopiesEveryInstrument moves every live instrument once and
// requires every scalar and histogram of the resulting snapshots to be
// non-zero, so an instrument whose series row is missing from the table
// (and so is never copied) fails here.
func TestSnapshotCopiesEveryInstrument(t *testing.T) {
	m := NewMetrics()
	repl := &ReplMetrics{}
	net := NewNetMetrics()
	cluster := NewClusterMetrics()
	tenants := NewTenantMetrics()
	moved := move(reflect.ValueOf(m).Elem()) + move(reflect.ValueOf(repl).Elem()) +
		move(reflect.ValueOf(net).Elem()) + move(reflect.ValueOf(cluster).Elem()) +
		move(reflect.ValueOf(cluster.Shard("s1")).Elem()) + move(reflect.ValueOf(tenants.Tenant("acme")).Elem())
	if moved < 100 {
		t.Fatalf("moved only %d instruments; the walk missed some", moved)
	}

	s := m.Snapshot()
	s.Repl, s.Net, s.Cluster, s.Tenant = repl.Snapshot(), net.Snapshot(), cluster.Snapshot(), tenants.Snapshot()
	// Filled by the owners of state obs does not instrument: the
	// resilience guard's counters and the fault injector's.
	skip := map[string]bool{
		".Ingest.Accepted": true, ".Ingest.Repaired": true, ".Ingest.Rejected": true,
		".Ingest.QuarantinedStreams": true, ".Ingest.QuarantineTrips": true, ".Fault": true,
	}
	for _, z := range zeros(reflect.ValueOf(s), "", skip) {
		t.Errorf("%s is zero after every instrument moved: its series row is missing or misrouted", z)
	}
	if len(s.Cluster.PerShard) != 1 || s.Cluster.PerShard[0].Name != "s1" ||
		len(s.Tenant.PerTenant) != 1 || s.Tenant.PerTenant[0].Name != "acme" {
		t.Errorf("named rows = %+v / %+v", s.Cluster.PerShard, s.Tenant.PerTenant)
	}
}

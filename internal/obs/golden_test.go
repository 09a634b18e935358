package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// filled returns a Snapshot whose every int64 and HistogramSnapshot holds
// a distinct non-zero value derived from base, plus the named tenant and
// shard rows. Values sit above 10^6 so the exposition's number formatting
// (integers against shortest floats) is pinned too.
func filled(base int64, tenants, shards []string) Snapshot {
	var s Snapshot
	n := base
	next := func() int64 { n++; return n * 1_000_003 }
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch {
		case v.Type() == reflect.TypeOf(HistogramSnapshot{}):
			v.Set(reflect.ValueOf(HistogramSnapshot{
				Bounds: []float64{1000, 1e6, 1e9},
				Counts: []int64{next(), next(), next(), next()},
				Count:  next(),
				Sum:    float64(next()) + 0.25,
			}))
		case v.Kind() == reflect.Int64:
			v.SetInt(next())
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		}
	}
	fill(reflect.ValueOf(&s).Elem())
	for _, name := range tenants {
		row := TenantSnapshot{Name: name}
		fill(reflect.ValueOf(&row).Elem())
		s.Tenant.PerTenant = append(s.Tenant.PerTenant, row)
	}
	for _, name := range shards {
		row := ClusterShardSnapshot{Name: name}
		fill(reflect.ValueOf(&row).Elem())
		s.Cluster.PerShard = append(s.Cluster.PerShard, row)
	}
	return s
}

// checkGolden compares got against testdata/name byte for byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/obs -run Golden -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
}

// TestGoldenProm pins every /metricsz line: a dropped series, a renamed
// one, a changed help text or a changed number format shows as a diff.
func TestGoldenProm(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, filled(0, []string{"acme", "beta"}, []string{"s1", "s2"})); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metricsz.golden", buf.Bytes())
}

// TestGoldenMerge pins the merge rule of every field: sum or max for
// scalars, bucket-wise for histograms, keyed by name for the tenant and
// shard rows (one name appears on both sides).
func TestGoldenMerge(t *testing.T) {
	a := filled(0, []string{"acme", "beta"}, []string{"s1", "s2"})
	b := filled(500, []string{"acme", "gamma"}, []string{"s2", "s3"})
	out, err := json.MarshalIndent(a.Merge(b), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "merge.golden.json", append(out, '\n'))
}

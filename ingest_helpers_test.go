package stardust

import "testing"

// ingester is the fallible ingest surface shared by Monitor, SafeWatcher
// and ShardedMonitor; the must* helpers below let tests that
// only feed known-good data use it without per-call error plumbing.
type ingester interface {
	Ingest(stream int, v float64) error
	IngestAll(vs []float64) error
}

// mustIngest appends one known-admissible value, failing the test on a
// rejection.
func mustIngest(tb testing.TB, m ingester, stream int, v float64) {
	tb.Helper()
	if err := m.Ingest(stream, v); err != nil {
		tb.Fatalf("ingest stream %d value %v: %v", stream, v, err)
	}
}

// mustIngestAll appends one known-admissible synchronized arrival, failing
// the test on a rejection.
func mustIngestAll(tb testing.TB, m ingester, vs []float64) {
	tb.Helper()
	if err := m.IngestAll(vs); err != nil {
		tb.Fatalf("ingest all %v: %v", vs, err)
	}
}

// newSafeWatcher builds a fresh monitor from cfg behind the concurrent
// wrapper.
func newSafeWatcher(cfg Config) (*SafeWatcher, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return NewSafeWatcher(m), nil
}

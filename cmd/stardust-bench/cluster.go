package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"stardust"
	"stardust/internal/cluster"
	"stardust/internal/gen"
	"stardust/internal/server"
	"stardust/internal/transport"
)

// benchFleetSize is the backend count for the cluster rows: the smallest
// fleet where scatter-gather, cross-shard screening and the ring all do
// real work.
const benchFleetSize = 3

// benchFleet is a loopback cluster: N full-width backends, each serving
// HTTP and the binary wire, behind one coordinator.
type benchFleet struct {
	mons []*stardust.SafeWatcher
	cl   *cluster.Cluster
	stop func()
}

// inserts sums the fleet's index insert counters. Every sample is owned by
// exactly one shard, so the sum must equal a single monitor's count over
// the same data — the determinism gate for the router rows.
func (f *benchFleet) inserts() int64 {
	var total int64
	for _, m := range f.mons {
		total += m.Metrics().Tree.Inserts
	}
	return total
}

// startBenchFleet boots the loopback fleet and its coordinator.
func startBenchFleet(cfg stardust.Config) (*benchFleet, error) {
	f := &benchFleet{}
	var stops []func()
	f.stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	shards := make([]cluster.ShardConfig, benchFleetSize)
	for i := 0; i < benchFleetSize; i++ {
		mon, err := stardust.New(cfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		m := stardust.NewSafeWatcher(mon)
		f.mons = append(f.mons, m)
		srv := server.New(m)

		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(hln)
		stops = append(stops, func() { hs.Close() })

		tln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		ts := transport.NewServer(transport.Config{Backend: m})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			ts.Serve(ctx, tln)
		}()
		stops = append(stops, func() { cancel(); <-done })

		shards[i] = cluster.ShardConfig{
			Name: fmt.Sprintf("bench-%d", i),
			HTTP: "http://" + hln.Addr().String(),
			TCP:  tln.Addr().String(),
		}
	}
	cl, err := cluster.New(cluster.Config{
		Shards:       shards,
		Streams:      cfg.Streams,
		ShardTimeout: 30 * time.Second,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.cl = cl
	stops = append(stops, func() { cl.Close() })
	return f, nil
}

// clusterWorkloads drives the coordinator tier end to end on loopback:
//
//   - cluster/ingest-router: the batched random-walk ingest forwarded
//     through the router's consistent-hash ring over the binary wire.
//     Summed shard index inserts certify no sample was lost or
//     duplicated.
//   - cluster/query-fanout: correlation detection scattered across the
//     fleet and gathered through the cross-shard screen-then-verify
//     merge. The candidate/verified counters aggregate the shards'
//     deterministic screens.
func clusterWorkloads(ingestCfg stardust.Config, data [][]float64, queries int, seed int64) ([]workloadResult, error) {
	streams, arrivals := len(data), len(data[0])
	ops := int64(streams) * int64(arrivals)
	var out []workloadResult

	// Router-forwarded ingest over the wire protocol.
	f, err := startBenchFleet(ingestCfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	allocs0 := allocsSnapshot()
	for s := 0; s < streams; s++ {
		if err := f.cl.IngestBatch(s, data[s]); err != nil {
			f.stop()
			return nil, fmt.Errorf("cluster ingest: %v", err)
		}
	}
	allocsPerOp := allocsSince(allocs0, ops)
	elapsed := time.Since(start)
	inserts := f.inserts()
	// The row's latency columns take the worst shard: the tail-latency
	// contract must hold on every member of the fleet.
	var p50, p99 float64
	for _, m := range f.mons {
		ms := m.Metrics()
		if v := ms.Ingest.AppendNanos.P50(); v > p50 {
			p50 = v
		}
		if v := ms.Ingest.AppendNanos.P99(); v > p99 {
			p99 = v
		}
	}
	f.stop()
	out = append(out, workloadResult{
		Name: "cluster/ingest-router", Workers: benchFleetSize,
		Ops: ops, ElapsedNs: elapsed.Nanoseconds(),
		Throughput:  float64(ops) / elapsed.Seconds(),
		Inserts:     inserts,
		AllocsPerOp: allocsPerOp,
		AppendP50Ns: p50,
		AppendP99Ns: p99,
	})

	// Scatter-gather correlation detection over a warm NormZ fleet.
	qcfg := stardust.Config{
		Streams: streams, W: 32, Levels: 4, Transform: stardust.DWT,
		Mode: stardust.Batch, Coefficients: 2,
		Normalization: stardust.NormZ, History: arrivals,
	}
	hosts := gen.HostLoads(rand.New(rand.NewSource(seed+3)), streams, arrivals)
	qf, err := startBenchFleet(qcfg)
	if err != nil {
		return nil, err
	}
	defer qf.stop()
	for s := 0; s < streams; s++ {
		if err := qf.cl.IngestBatch(s, hosts[s]); err != nil {
			return nil, fmt.Errorf("cluster warmup: %v", err)
		}
	}
	start = time.Now()
	for q := 0; q < queries; q++ {
		if _, err := qf.cl.Correlations(1, 1.5); err != nil {
			return nil, fmt.Errorf("cluster correlations: %v", err)
		}
	}
	fanout := queryResult("cluster/query-fanout", benchFleetSize, int64(queries),
		time.Since(start), qf.cl.Metrics(), "correlation")
	out = append(out, fanout)
	return out, nil
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"stardust"
	"stardust/client"
	"stardust/internal/server"
	"stardust/internal/transport"
)

// wireWorkloads drives the same batched random-walk ingest through the two
// client transports against live loopback listeners: the HTTP/JSON
// endpoint and the binary TCP wire. Identical index inserts certify both
// paths admitted every sample; the throughput ratio is the wire protocol's
// reason to exist (the CI criterion is TCP ≥ 2× HTTP on samples/sec).
func wireWorkloads(cfg stardust.Config, data [][]float64, chunk int) ([]workloadResult, error) {
	streams, arrivals := len(data), len(data[0])
	ops := int64(streams) * int64(arrivals)
	var out []workloadResult

	for _, mode := range []string{"http", "tcp"} {
		mon, err := stardust.New(cfg)
		if err != nil {
			return nil, err
		}
		m := stardust.NewSafeWatcher(mon)
		var dial client.Option
		var stop func()
		switch mode {
		case "http":
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			hs := &http.Server{Handler: server.New(m)}
			go hs.Serve(ln)
			dial = client.WithHTTP("http://" + ln.Addr().String())
			stop = func() { hs.Close() }
		case "tcp":
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			ts := transport.NewServer(transport.Config{Backend: m})
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				ts.Serve(ctx, ln)
			}()
			dial = client.WithTCP(ln.Addr().String())
			stop = func() {
				cancel()
				<-done
			}
		}

		c, err := client.New(dial, client.WithTimeout(30*time.Second))
		if err != nil {
			stop()
			return nil, fmt.Errorf("wire/%s: %v", mode, err)
		}
		start := time.Now()
		allocs0 := allocsSnapshot()
		for s := 0; s < streams; s++ {
			for off := 0; off < arrivals; off += chunk {
				end := off + chunk
				if end > arrivals {
					end = arrivals
				}
				if err := c.IngestBatch(s, data[s][off:end]); err != nil {
					c.Close()
					stop()
					return nil, fmt.Errorf("wire/%s ingest: %v", mode, err)
				}
			}
		}
		allocsPerOp := allocsSince(allocs0, ops)
		elapsed := time.Since(start)
		c.Close()
		stop()
		ms := m.Metrics()
		out = append(out, workloadResult{
			Name: "ingest/wire-" + mode, Workers: 1,
			Ops: ops, ElapsedNs: elapsed.Nanoseconds(),
			Throughput:  float64(ops) / elapsed.Seconds(),
			Inserts:     ms.Tree.Inserts,
			AllocsPerOp: allocsPerOp,
			AppendP50Ns: ms.Ingest.AppendNanos.P50(),
			AppendP99Ns: ms.Ingest.AppendNanos.P99(),
		})
	}
	return out, nil
}

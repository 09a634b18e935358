package main

import "fmt"

// endToEnd assembles the client-observed metrics of one untraced run.
// Every timing but set-up is a median over many operations of the
// measured phase. Set-up is one cold start per run.
func endToEnd(wr *wireRun) (*result, error) {
	if err := requireSamples("ingest acks", wr.frameLat, 40); err != nil {
		return nil, err
	}
	if len(wr.roundQuery) == 0 {
		return nil, fmt.Errorf("no measured queries")
	}
	m := map[string]metric{
		"setup_s":           {wr.setupS, "s"},
		"ingest_ack_p50_us": {median(wr.frameLat), "us"},
		"query_p50_ms":      {median(wr.roundQuery), "ms"},
		"peak_rss_mb":       {wr.peakRSS, "MiB"},
	}
	return &result{Correct: true, Attempted: wr.attempted, Failed: wr.failed, Metrics: m}, nil
}

#!/usr/bin/env sh
# CI gate: formatting, build, vet, an offline build of the stardustbench
# benchmark module, the offline doc-comment gate (doclint),
# the documentation compile + flag-drift gate (docbuild, covering both the
# stardust-server and stardust-router flag sets), staticcheck, the full
# test suite under the race detector with shuffled execution order, a
# short-mode chaos-matrix run (randomized fault schedules across WAL +
# replication + failover), 200 isolated runs of the TCP tier's
# frame-accounting test, a wire soak smoke (concurrent binary TCP
# clients, snapshot checked byte-identical against an HTTP-ingested
# reference), a cluster e2e smoke (three stardust-server shards behind a
# stardust-router on ephemeral ports: mixed-transport ingest, every query
# class byte-compared against a single-process reference, then one shard
# kill -9ed to exercise the degraded partial-result path), a spec e2e
# smoke (two spec-loaded servers covering all three watch kinds across
# two tenants: attributed events, per-tenant metrics, typed quota
# rejections and an atomic live /specz reload), a watch-engine smoke
# (stardustbench's correlation-watch workload against a live server, its
# correlation and pattern events checked by brute force), short fuzz
# smokes over the WAL frame parser, the client wire-frame parser, the
# snapshot loader, the fault-schedule parser, the consistent-hash ring
# lookup, the monitor-spec parser and the DABA sliding-aggregate parity
# oracle, a one-iteration benchmark smoke pass, and the
# benchmark-regression comparison against the committed BENCH_PR10.json
# baseline (deterministic counters plus the sampled append-latency p99
# ceiling — the worst-case O(1) tail-latency contract; throughput stays
# warn-only). Run from the repository root. Fails fast on the first error.
#
# Each stage prints its elapsed wall-clock seconds so slow stages are
# visible directly in CI logs.
set -eu

# Every stage's temp files live in one mktemp -d scratch directory, and one
# exit trap tears down both the scratch and any smoke processes still
# running — there is no other cleanup path, so a failing stage cannot leak
# either.
SCRATCH=$(mktemp -d)
SMOKE_PIDS=""
cleanup() {
    if [ -n "$SMOKE_PIDS" ]; then
        kill $SMOKE_PIDS 2>/dev/null || true
    fi
    rm -rf "$SCRATCH"
}
trap cleanup EXIT INT TERM

STAGE_START=0
stage() {
    STAGE_START=$(date +%s)
    echo "== $* =="
}
stage_done() {
    echo "-- done in $(( $(date +%s) - STAGE_START ))s"
}

stage "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
stage_done

stage "go build"
go build ./...
stage_done

stage "go vet"
go vet ./...
stage_done

# Hard documentation gates, both offline (no module fetches):
#  - doclint enforces the stylecheck doc rules (ST1000 package comments,
#    ST1020/ST1021/ST1022 doc comments on every exported identifier) over
#    the whole tree, so the gate holds even where staticcheck cannot be
#    downloaded.
#  - docbuild compiles every ```go block in the markdown docs and fails if
#    cmd/stardust-server or cmd/stardust-router registers a flag that
#    README.md/RUNBOOK.md do not document.
stage "doclint (doc-comment gate)"
go run ./internal/tools/doclint .
stage_done

stage "docbuild (markdown code blocks + flag reference)"
go run ./internal/tools/docbuild \
    -flagsrc cmd/stardust-server/main.go,cmd/stardust-router/main.go \
    -flagdoc README.md,RUNBOOK.md \
    README.md RUNBOOK.md DESIGN.md
stage_done

# staticcheck is pinned and fetched on demand; on machines without network
# access (or with GOFLAGS=-mod=vendor and no vendored copy) the fetch fails
# and the gate falls back to go vet alone, with a notice so the gap is
# visible. CI runners have network, so the check is enforced there.
STATICCHECK_VERSION=2025.1.1
stage "staticcheck ($STATICCHECK_VERSION)"
if go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./... 2>"$SCRATCH/staticcheck.err"; then
    stage_done
elif grep -qi 'dial tcp\|no such host\|connection refused\|i/o timeout\|proxyconnect' "$SCRATCH/staticcheck.err"; then
    echo "-- staticcheck unavailable offline (go vet already ran); skipping"
else
    cat "$SCRATCH/staticcheck.err" >&2
    exit 1
fi

# The benchmark module (stardustbench/) is versioned apart from the root
# module, so the root build above does not compile it; building it here,
# offline, makes a root API change that breaks the benchmark fail CI.
stage "stardustbench build (offline)"
(cd stardustbench && GOFLAGS= GOPROXY=off go build -o "$SCRATCH/stardustbench" .)
stage_done

# -shuffle=on randomizes test execution order within each package so
# accidental inter-test ordering dependencies surface in CI rather than on
# a developer's machine; the chosen seed prints at the top of the log for
# reproduction. -count=1 bypasses the test cache, so a cached pass (one
# that won a timing race once) can never stand in for a real run.
stage "go test -race -shuffle=on -count=1"
go test -race -shuffle=on -count=1 ./...
stage_done

# The full -race suite above may satisfy the chaos matrix from the test
# cache; this stage re-runs it with -count=1 so every CI run demonstrably
# exercises the fault-injection path end to end.
stage "chaos matrix (short mode, -race)"
go test -race -short -count=1 -run '^TestChaosMatrix$' ./internal/replication
stage_done

# The TCP tier counts each reply frame before its bytes can reach the
# client; a client that reads the reply and then the server's metrics
# must see it counted. One run of the ordering test rarely loses that race
# when the order is wrong; 200 isolated runs (about a second) make a
# regression show.
stage "transport frame accounting (200 runs)"
go test -count=200 -run 'TestIngestAckAndStats$' ./internal/transport
stage_done

# Like the chaos matrix: -count=1 so the soak demonstrably runs the
# concurrent wire clients every time rather than replaying a cached pass.
stage "wire soak smoke (concurrent TCP clients vs HTTP reference, -race)"
go test -race -count=1 -run '^TestWireSoak$' ./client
stage_done

# Cluster e2e smoke: real processes, not in-process test servers. Three
# full-width stardust-server shards and one stardust-router start on
# ephemeral ports; the clustersmoke driver ingests a seeded workload
# through the router over both transports (and into a fourth, single
# process reference server), byte-compares every query class between
# router and reference, then one shard dies by kill -9 and the degraded
# partial-result path must keep answering. Teardown rides the single exit
# trap above.
stage "cluster e2e smoke (3 shards + router vs single reference)"
go build -o "$SCRATCH/stardust-server" ./cmd/stardust-server
go build -o "$SCRATCH/stardust-router" ./cmd/stardust-router
go build -o "$SCRATCH/clustersmoke" ./internal/tools/clustersmoke

SMOKE_STREAMS=6
SMOKE_SEED=99
SMOKE_CFG="-streams $SMOKE_STREAMS -w 16 -levels 3 -transform dwt -mode batch -norm z -f 4 -history 512"

set -- $("$SCRATCH/clustersmoke" -phase ports -n 9)
A_HTTP=$1; A_TCP=$2; B_HTTP=$3; B_TCP=$4; C_HTTP=$5; C_TCP=$6
R_HTTP=$7; R_TCP=$8; REF_HTTP=$9

# shellcheck disable=SC2086 # SMOKE_CFG is a deliberate word list
"$SCRATCH/stardust-server" -addr "127.0.0.1:$A_HTTP" -tcp-addr "127.0.0.1:$A_TCP" $SMOKE_CFG \
    >"$SCRATCH/shard-a.log" 2>&1 &
SMOKE_PIDS="$SMOKE_PIDS $!"
# shellcheck disable=SC2086
"$SCRATCH/stardust-server" -addr "127.0.0.1:$B_HTTP" -tcp-addr "127.0.0.1:$B_TCP" $SMOKE_CFG \
    >"$SCRATCH/shard-b.log" 2>&1 &
SHARD_B_PID=$!
SMOKE_PIDS="$SMOKE_PIDS $SHARD_B_PID"
# shellcheck disable=SC2086
"$SCRATCH/stardust-server" -addr "127.0.0.1:$C_HTTP" -tcp-addr "127.0.0.1:$C_TCP" $SMOKE_CFG \
    >"$SCRATCH/shard-c.log" 2>&1 &
SMOKE_PIDS="$SMOKE_PIDS $!"
# shellcheck disable=SC2086
"$SCRATCH/stardust-server" -addr "127.0.0.1:$REF_HTTP" $SMOKE_CFG \
    >"$SCRATCH/reference.log" 2>&1 &
SMOKE_PIDS="$SMOKE_PIDS $!"

"$SCRATCH/stardust-router" -addr "127.0.0.1:$R_HTTP" -tcp-addr "127.0.0.1:$R_TCP" \
    -streams $SMOKE_STREAMS -partial degrade -retries 1 -retry-backoff 20ms -health-every 0 \
    -shards "shard-a=http://127.0.0.1:$A_HTTP;127.0.0.1:$A_TCP,shard-b=http://127.0.0.1:$B_HTTP;127.0.0.1:$B_TCP,shard-c=http://127.0.0.1:$C_HTTP;127.0.0.1:$C_TCP" \
    >"$SCRATCH/router.log" 2>&1 &
SMOKE_PIDS="$SMOKE_PIDS $!"

smoke_logs() {
    for log in shard-a shard-b shard-c reference router; do
        echo "--- $log.log ---" >&2
        cat "$SCRATCH/$log.log" >&2 || true
    done
}

"$SCRATCH/clustersmoke" -phase wait -timeout 30s \
    -urls "http://127.0.0.1:$A_HTTP,http://127.0.0.1:$B_HTTP,http://127.0.0.1:$C_HTTP,http://127.0.0.1:$REF_HTTP,http://127.0.0.1:$R_HTTP" \
    || { smoke_logs; exit 1; }
"$SCRATCH/clustersmoke" -phase ingest -streams $SMOKE_STREAMS -seed $SMOKE_SEED \
    -router-http "http://127.0.0.1:$R_HTTP" -router-tcp "127.0.0.1:$R_TCP" \
    -ref-http "http://127.0.0.1:$REF_HTTP" \
    || { smoke_logs; exit 1; }
"$SCRATCH/clustersmoke" -phase compare -streams $SMOKE_STREAMS -seed $SMOKE_SEED \
    -router-http "http://127.0.0.1:$R_HTTP" -ref-http "http://127.0.0.1:$REF_HTTP" \
    || { smoke_logs; exit 1; }

# Hard shard failure: no drain, no snapshot — the degraded path must hold.
kill -9 "$SHARD_B_PID"
"$SCRATCH/clustersmoke" -phase partial -streams $SMOKE_STREAMS -seed $SMOKE_SEED \
    -router-http "http://127.0.0.1:$R_HTTP" \
    || { smoke_logs; exit 1; }

kill $SMOKE_PIDS 2>/dev/null || true
SMOKE_PIDS=""
stage_done

# Spec e2e smoke: two spec-loaded stardust-server processes (one
# transform cannot host all three watch kinds — aggregate bounds need SUM
# extents, feature-space queries need DWT coefficients). The specsmoke
# driver writes the spec/tenant files, ci.sh boots a SUM server carrying
# aggregate watches across two tenants and a DWT server carrying pattern
# + correlation watches, and the run phase asserts boot-loaded specs,
# attributed events, per-tenant metrics, typed quota rejections, a live
# /specz reload and the atomicity of a rejected one.
stage "spec e2e smoke (two tenants + live /specz reload)"
go build -o "$SCRATCH/specsmoke" ./internal/tools/specsmoke
"$SCRATCH/specsmoke" -phase files -dir "$SCRATCH"

set -- $("$SCRATCH/clustersmoke" -phase ports -n 2)
SPEC_SUM=$1; SPEC_DWT=$2

"$SCRATCH/stardust-server" -addr "127.0.0.1:$SPEC_SUM" \
    -streams 4 -w 8 -levels 4 -transform sum \
    -spec-file "$SCRATCH/sum.spec" -tenants-file "$SCRATCH/tenants.json" \
    >"$SCRATCH/spec-sum.log" 2>&1 &
SMOKE_PIDS="$SMOKE_PIDS $!"
"$SCRATCH/stardust-server" -addr "127.0.0.1:$SPEC_DWT" \
    -streams 4 -w 8 -levels 3 -transform dwt -mode batch -norm z -f 4 -history 600 \
    -spec-file "$SCRATCH/dwt.spec" \
    >"$SCRATCH/spec-dwt.log" 2>&1 &
SMOKE_PIDS="$SMOKE_PIDS $!"

spec_logs() {
    for log in spec-sum spec-dwt; do
        echo "--- $log.log ---" >&2
        cat "$SCRATCH/$log.log" >&2 || true
    done
}

"$SCRATCH/clustersmoke" -phase wait -timeout 30s \
    -urls "http://127.0.0.1:$SPEC_SUM,http://127.0.0.1:$SPEC_DWT" \
    || { spec_logs; exit 1; }
"$SCRATCH/specsmoke" -phase run \
    -sum-url "http://127.0.0.1:$SPEC_SUM" -dwt-url "http://127.0.0.1:$SPEC_DWT" \
    || { spec_logs; exit 1; }

kill $SMOKE_PIDS 2>/dev/null || true
SMOKE_PIDS=""
stage_done

# The standing-query engine on real processes: stardustbench's
# correlation-watch workload drives a spec-loaded stardust-server over the
# wire and requires the delivered correlation events to equal the
# brute-force pair set (each once) and every pattern event's distance to
# match its recomputation; any mismatch exits non-zero. run.sh builds into
# .bench_build/ (offline) and removes a passing run's files.
stage "watch engine smoke (stardustbench correlation-watch, brute-force checked)"
bash stardustbench/run.sh --workload correlation-watch --seed 1 --seconds 2 --trace 0 >/dev/null
stage_done

stage "fuzz smoke (5s per target)"
go test -run='^$' -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/wal
go test -run='^$' -fuzz=FuzzDecodeWireFrame -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz=FuzzReplaySegment -fuzztime=5s ./internal/wal
go test -run='^$' -fuzz=FuzzLoadSnapshot -fuzztime=5s .
go test -run='^$' -fuzz=FuzzParseSchedule -fuzztime=5s ./internal/fault
go test -run='^$' -fuzz=FuzzRingLookup -fuzztime=5s ./internal/cluster
go test -run='^$' -fuzz=FuzzParseSpec -fuzztime=5s ./internal/spec
go test -run='^$' -fuzz=FuzzDABAParity -fuzztime=5s ./internal/window
stage_done

stage "bench smoke (1 iteration)"
go test -bench=. -benchtime=1x -run '^$' ./...
stage_done

# The 2ms ceiling is the absolute tail-latency contract: sampled append
# p99 sits in single-digit microseconds on a developer laptop (see
# BENCH_PR10.json), so the ceiling holds ~250x headroom for slow CI
# runners while still catching any O(w)-sweep regression, which would
# push the tail orders of magnitude, not percent.
stage "bench regression gate (BENCH_PR10.json + p99 ceiling)"
go run ./cmd/stardust-bench -compare BENCH_PR10.json -p99-ceiling-ms 2
stage_done

echo "CI OK"

#!/usr/bin/env bash
# Builds cmd/stardust-server and the benchmark from the checkout's sources
# into .bench_build/ (build cache included, so nothing is written outside
# the checkout) and runs one benchmark invocation. Run it from the
# repository root:
#
#   bash stardustbench/run.sh --workload burst-ingest --seed 1 --seconds 10 --trace 0
#   bash stardustbench/run.sh --steady 10 --workload all --seconds 10
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/stardust-server" ]; then
	echo "stardustbench: run from the repository root (no cmd/stardust-server under $root)" >&2
	exit 2
fi

# The Go toolchain's usual install location, for shells whose PATH lacks it.
command -v go >/dev/null 2>&1 || PATH="/usr/local/go/bin:$PATH"

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/stardust-server" ./cmd/stardust-server
(cd "$bench_dir" && go build -o "$out/stardustbench" .)
exec "$out/stardustbench" -server "$out/stardust-server" -out "$out" "$@"

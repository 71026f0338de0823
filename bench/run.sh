#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: bash bench/run.sh --workload stream_steady --seed 1 --seconds 15 --trace 0
# Everything the build writes (binary, Go build cache) stays under .bench_build
# in the checkout, and nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/affinity-bench" .)
cd "$root"
exec "$build/affinity-bench" "$@"

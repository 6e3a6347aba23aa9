#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build mitsbench
# from the checkout's own source and run it with the given arguments.
#
#   bash bench/run.sh --workload stream_cold --seed 7 --seconds 20 --trace 0
#
# Everything it writes stays under bench/.build: the binary and the go
# build cache, so the first run in a fresh checkout compiles from
# scratch and later runs only re-check. Without the repository around
# it (go.mod, internal/) the build fails and nothing is printed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$here" build -o "$build/mitsbench" ./cmd/mitsbench
exec "$build/mitsbench" "$@"

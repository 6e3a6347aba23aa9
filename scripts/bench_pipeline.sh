#!/bin/sh
# bench_pipeline.sh — pipelined-transport + content-cache baseline.
# Runs the E29 throughput benchmark (parallel GetContent at 1/8/64
# callers over ONE multiplexed TCP connection, against a server paying
# a modeled 1ms store service latency, then cache hit vs fetch miss)
# and leaves the numbers in BENCH_pipeline.json at the repo root. The
# shape that matters: rpcs_per_sec at 8 callers at least 3x the
# 1-caller (serialized) baseline, and cache_hit_speedup at least 10x —
# the two acceptance lines of the pipelining change.
set -eu

cd "$(dirname "$0")/.."

echo "==> go test -run=NONE -bench=BenchmarkPipelinedThroughput -benchtime=200x ."
go test -run=NONE -bench=BenchmarkPipelinedThroughput -benchtime=200x .

echo "==> BENCH_pipeline.json:"
cat BENCH_pipeline.json

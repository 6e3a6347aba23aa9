#!/bin/sh
# check.sh — the tier-2 correctness gate: build, vet, the MITS
# static-analysis suite, and the full test suite under the race
# detector. CI and pre-merge runs should call this; one failure is a
# bug, not noise (see EXPERIMENTS.md "Deterministic invariants").
#
# Every suite runs once: `go test -race ./...` is the only pass over the
# unit, experiment (E28/E30/E31 shape checks included) and stress tests;
# the gates after it add what that pass cannot — fuzzing beyond the
# corpora, the smoke binary, the benchmark acceptance bits, and the 5x
# repetition of the scheduling-dependent suites. A failing experiment
# prints its per-scenario table itself.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/mitslint -ci -baseline lint.baseline.json ./..."
go run ./cmd/mitslint -ci -baseline lint.baseline.json ./...

echo "==> go test -race ./..."
go test -race ./...

# The benchmark is its own module compiled against this tree's
# transport surface, and program PRs may not edit it: a change that
# breaks it must fail here, not in the benchmark driver.
echo "==> go -C bench vet ./... && go -C bench test ./..."
go -C bench vet ./...
go -C bench test ./...

# Fuzz smoke: each decoder fuzzer runs briefly so a regression that
# only hostile input reaches fails the gate, not a user. The checked-in
# seed corpora already replayed in the test run above; this explores
# beyond them. Sequential: go fuzzing owns all CPUs per target.
for target in \
	FuzzFrameDecode:./internal/transport/ \
	FuzzContentChunkDecode:./internal/transport/ \
	FuzzGobDecodeDifferential:./internal/transport/ \
	FuzzAAL5Reassemble:./internal/atm/ \
	FuzzMHEGDecode:./internal/mheg/codec/ \
	FuzzMarkupParse:./internal/markup/ \
	FuzzWireDecode:./internal/obs/collect/ ; do
	fuzz=${target%%:*}
	pkg=${target#*:}
	echo "==> go test -fuzz=$fuzz -fuzztime=10s $pkg"
	go test -fuzz="$fuzz" -fuzztime=10s "$pkg"
done

# Observability gate: the two-leg smoke (traced-RPC stats scrape, then
# the three-node trace pipeline checked over the collector's HTTP
# views) and the overhead benchmarks written to BENCH_obs.json (export
# overhead must stay under 5%).
echo "==> go run ./cmd/obssmoke"
go run ./cmd/obssmoke

echo "==> scripts/bench_obs.sh"
./scripts/bench_obs.sh

# Chaos gate: the fault-recovery latency benchmark writing
# BENCH_faults.json.
echo "==> scripts/bench_faults.sh"
./scripts/bench_faults.sh

# Pipelining gate: the E29 throughput benchmark writing
# BENCH_pipeline.json (8-caller speedup vs the serialized baseline,
# cache hit vs miss).
echo "==> scripts/bench_pipeline.sh"
./scripts/bench_pipeline.sh

# Cluster gate: the availability/latency benchmark writing
# BENCH_cluster.json — the script fails if either acceptance bit
# (100% availability with one replica down per shard, degraded p99
# within 3x healthy) is false.
echo "==> scripts/bench_cluster.sh"
./scripts/bench_cluster.sh

# Race-stress gate: the transport pipelining, cache singleflight and
# cluster failover suites repeated 5× under the race detector (make
# racestress). The concurrency analyzers (chanwait, atomicmix,
# poolcheck, deadlinecheck) verify the protocol shapes statically;
# this leg exercises the interleavings they cannot see.
echo "==> make racestress"
make racestress

echo "==> all checks passed"

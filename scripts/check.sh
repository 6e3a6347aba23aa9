#!/bin/sh
# check.sh — the tier-2 correctness gate: build, vet, gofmt and the
# MITS static-analysis suite (make lint), and the full test suite under
# the race detector. CI and pre-merge runs should call this; one failure is a
# bug, not noise (see EXPERIMENTS.md "Deterministic invariants").
#
# Every suite runs once: `go test -race ./...` is the only pass over the
# unit, chaos (fault matrix, trace collection, cluster failover) and
# stress tests; the tests of internal/experiments (the paper-reproduction
# shape checks), internal/atm and internal/conference exercise
# single-goroutine simulations and are built with `!race`, so they run
# in the tier-1 `go test ./...` instead;
# the legs after it add what that pass cannot — fuzzing beyond the
# corpora, the one benchmark that fails itself, and the 5x repetition
# of the scheduling-dependent suites. The test lists of those legs live
# in the Makefile only. Nothing here writes a tracked file.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> make lint"
make lint

echo "==> go test -race ./..."
go test -race ./...

# Fuzz smoke: each decoder fuzzer runs for 10s so a regression that
# only hostile input reaches fails the gate, not a user. The checked-in
# seed corpora already replayed in the test run above; this explores
# beyond them.
echo "==> make fuzz"
make fuzz

# Cluster gate: the E31 availability benchmark in ./internal/cluster/
# fails itself if a read fails with one replica down per shard or the
# one-down p99 exceeds 3x healthy.
echo "==> make cluster"
make cluster

# Race-stress gate: the transport pipelining, cache singleflight and
# cluster failover suites repeated 5× under the race detector (make
# racestress). The concurrency analyzers (chanwait, atomicmix,
# poolcheck, deadlinecheck) verify the protocol shapes statically;
# this leg exercises the interleavings they cannot see.
echo "==> make racestress"
make racestress

# The benchmark is its own module compiled against this tree's
# transport surface, and program PRs may not edit it: a change that
# breaks it must fail here, not when the benchmark runs. It runs last
# so that a failure in the benchmark's own tests, which only a change
# to bench/ can mend, does not keep the legs above from running; the
# script still exits non-zero on it.
echo "==> go -C bench vet ./... && go -C bench test ./..."
go -C bench vet ./...
go -C bench test ./...

echo "==> all checks passed"

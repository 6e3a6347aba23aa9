# Tier-1 gate: must stay green at every commit.
.PHONY: build test
build:
	go build ./...
test: build
	go test ./...

# Tier-2 gate: build + vet + mitslint + race detector (scripts/check.sh).
# The script runs each suite once; the chaos/pipeline/cluster/obs
# targets below re-run one suite next to its benchmark and are for
# working on that subsystem, not part of check.
.PHONY: check
check:
	./scripts/check.sh

# The project static-analysis suite on its own (gate mode: stale
# baseline entries are hard errors, same as CI).
.PHONY: lint
lint:
	go run ./cmd/mitslint -ci ./...

# The decoder fuzzers, 10s each (sequential: fuzzing owns all CPUs).
.PHONY: fuzz
fuzz:
	go test -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/transport/
	go test -fuzz=FuzzContentChunkDecode -fuzztime=10s ./internal/transport/
	go test -fuzz=FuzzGobDecodeDifferential -fuzztime=10s ./internal/transport/
	go test -fuzz=FuzzAAL5Reassemble -fuzztime=10s ./internal/atm/
	go test -fuzz=FuzzMHEGDecode -fuzztime=10s ./internal/mheg/codec/
	go test -fuzz=FuzzMarkupParse -fuzztime=10s ./internal/markup/
	go test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/obs/collect/

# The experiment benchmarks (E1–E24 plus the E27 obs baseline).
.PHONY: bench
bench:
	go test -bench=. -benchmem .

# Chaos gate: the E28 fault matrix (injected loss, stalls, corruption,
# truncation, flaky accepts, partition-heal, ATM drops, starved
# streams) under the race detector, plus the fault-recovery latency
# benchmark (scripts/bench_faults.sh writes BENCH_faults.json).
.PHONY: chaos
chaos:
	go test -race -run 'TestAllExperimentsPassShapeChecks/E28' -v ./internal/experiments/
	./scripts/bench_faults.sh

# Pipelining gate: the multiplexed-client stress + Close-drain tests
# under the race detector, plus the E29 throughput/cache benchmark
# (scripts/bench_pipeline.sh writes BENCH_pipeline.json).
.PHONY: pipeline
pipeline:
	go test -race -run 'TestPipelineStress64|TestCloseDrainsPendingExactlyOnce' -v ./internal/transport/
	./scripts/bench_pipeline.sh

# The connection pool's stripe tests (failure isolation, round robin,
# all stripes dead) under the race detector. The E32 benchmark that ran
# behind them is retired: what its bits were for is gated by the
# stream_cold and cluster_rw workloads of BENCHMARK.json, and its one
# exact bit (a cached read allocates nothing) is a go test.
.PHONY: saturation
saturation:
	go test -race -run 'TestPoolStripeFailureIsolation|TestPoolStripesRoundRobin|TestPoolAllStripesDead' -v ./internal/transport/

# Cluster gate: the E31 chaos experiment (replica kill, shard
# partition, heal-while-streaming against the sharded replicated
# store) under the race detector, plus the availability/latency
# benchmark (scripts/bench_cluster.sh writes BENCH_cluster.json and
# fails if either acceptance bit — 100% availability with one replica
# down per shard, degraded p99 within 3× healthy — is false).
.PHONY: cluster
cluster:
	go test -race -run 'TestAllExperimentsPassShapeChecks/E31' -v ./internal/experiments/
	./scripts/bench_cluster.sh

# Race-stress gate: the concurrency-protocol suites that guard the
# multiplexed hot path — transport pipelining (out-of-order completion,
# conn-death drain, blocked-enqueue release, abandoned frames, the
# stream window's settle-every-started-call accounting, the process-wide
# codec pools under eight callers, GetContent's records against scribbled
# and reused response buffers), the cache singleflight, the
# cluster failover ladder (replica death mid-stream vs the replication
# appliers, the relay's release-exactly-once), and the keyword tree's
# shared snapshot under publishers — repeated 5× under the race
# detector so scheduling-dependent interleavings get real coverage, not
# one lucky pass. chanwait/atomicmix/poolcheck/deadlinecheck prove the
# protocol shapes statically; this leg hammers the shapes they cannot
# see.
.PHONY: racestress
racestress:
	go test -race -count=5 -run 'TestPipelineStress64|TestCloseDrainsPendingExactlyOnce|TestEnqueueBlockedCallersReleasedOnConnDeath|TestWriteLoopSkipsAbandonedFrames|TestConnDeathFailsAllInFlight|TestCallTimeoutKeepsConnection|TestPoolStripeFailureIsolation|TestStreamSettlesEveryStartedCall|TestStreamOrderAndEquivalence|TestServerReleasesPooledResponseExactlyOnce|TestCodecConcurrent|TestGetContentRecordOwnsItsMemory' ./internal/transport/
	go test -race -count=5 -run 'TestSingleflight|TestFillErrorNotCached|TestConcurrentMixedKeys' ./internal/cache/
	go test -race -count=5 -run 'TestReplicaFailoverMidStream|TestReadFailoverReplicaDown|TestReplicationHealsAfterPartition|TestRouterRelayReleasesExactlyOnce|TestLibraryTreeFreshness' ./internal/cluster/
	go test -race -count=5 -run 'TestKeywordSnapshotsConcurrent' ./internal/mediastore/

# Observability checks alone: obs + collector + transport tests under
# the race detector, the two-leg smoke (traced-RPC scrape + three-node
# trace pipeline over the collector's HTTP views), the E30 cross-site
# trace experiment, and the overhead benchmarks (scripts/bench_obs.sh
# writes BENCH_obs.json: traced-RPC latency, export overhead at 8
# callers — acceptance <5% — and collector assembly throughput).
.PHONY: obs
obs:
	go test -race ./internal/obs/... ./internal/transport/
	go run ./cmd/obssmoke
	go test -race -run 'TestAllExperimentsPassShapeChecks/E30' -v ./internal/experiments/
	./scripts/bench_obs.sh

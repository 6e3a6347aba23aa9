# Tier-1 gate: must stay green at every commit.
.PHONY: build test
build:
	go build ./...
test: build
	go test ./...

# Tier-2 gate: build + vet + mitslint + race detector, then the legs
# below that add what one pass cannot (scripts/check.sh; EXPERIMENTS.md
# E37 classifies every leg). The test, fuzzer and benchmark lists
# of the gate are defined here and nowhere else: check.sh and CI call
# these targets, and TestGateListsResolve fails when a listed name
# stops resolving.
.PHONY: check
check:
	./scripts/check.sh

# The project static-analysis suite on its own, exactly as check.sh and
# CI run it: gofmt over the tracked Go files outside testdata (any file
# it would reformat fails), then mitslint (gate-only: any finding or
# dead suppression fails).
.PHONY: lint
lint:
	@unformatted=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	go run ./cmd/mitslint ./...

# The decoder fuzzers, 10s each (sequential: fuzzing owns all CPUs).
.PHONY: fuzz
fuzz:
	go test -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/transport/
	go test -fuzz=FuzzContentChunkDecode -fuzztime=10s ./internal/transport/
	go test -fuzz=FuzzPayloadDecode -fuzztime=10s ./internal/transport/
	go test -fuzz=FuzzAAL5Reassemble -fuzztime=10s ./internal/atm/
	go test -fuzz=FuzzMHEGDecode -fuzztime=10s ./internal/mheg/codec/
	go test -fuzz=FuzzMarkupParse -fuzztime=10s ./internal/markup/
	go test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/obs/collect/

# Cluster gate: the one benchmark that fails itself. E31 reads through
# the router over 2 shards x (primary + 2 replicas) at three damage
# levels and fails if a read fails with one replica down per shard or
# the one-down p99 exceeds 3x healthy (e31Accept in
# ./internal/cluster/, table-tested by TestE31Accept; 300 reads per
# stage so the p99 is a p99).
.PHONY: cluster
cluster:
	go test -run=NONE -bench=BenchmarkE31ClusterAvailability -benchtime=300x ./internal/cluster/

# Race-stress gate: the concurrency-protocol suites that guard the
# multiplexed hot path — transport pipelining (out-of-order completion,
# conn-death drain, blocked-enqueue release, abandoned frames, the
# stream window's settle-every-started-call accounting, the process-wide
# buffer pools under eight callers, GetContent's records against scribbled
# and reused response buffers), the cache singleflight, the
# cluster failover ladder (replica death mid-stream vs the replication
# appliers, the relay's release-exactly-once), the keyword tree's
# shared snapshot under publishers, store reads sharing the read lock
# with writers, navigators sharing one decoded course image through
# their content cache, also while it is republished, and engines sharing
# that image's model index while one writes its own copy — repeated 5× under the race
# detector so scheduling-dependent interleavings get real coverage, not
# one lucky pass. Four of the 13 mitslint analyzers (chanwait,
# atomicmix, poolcheck, deadlinecheck) prove the protocol shapes
# statically; this leg hammers the shapes they cannot see.
.PHONY: racestress
racestress:
	go test -race -count=5 -run 'TestPipelineStress64|TestCloseDrainsPendingExactlyOnce|TestEnqueueBlockedCallersReleasedOnConnDeath|TestWriteLoopSkipsAbandonedFrames|TestConnDeathFailsAllInFlight|TestCallTimeoutKeepsConnection|TestPoolStripeFailureIsolation|TestStreamSettlesEveryStartedCall|TestStreamOrderAndEquivalence|TestServerReleasesPooledResponseExactlyOnce|TestCodecConcurrent|TestGetContentRecordOwnsItsMemory' ./internal/transport/
	go test -race -count=5 -run 'TestSingleflight|TestFillErrorNotCached|TestConcurrentMixedKeys' ./internal/cache/
	go test -race -count=5 -run 'TestReplicaFailoverMidStream|TestReadFailoverReplicaDown|TestReplicationHealsAfterPartition|TestRouterRelayReleasesExactlyOnce|TestLibraryTreeFreshness' ./internal/cluster/
	go test -race -count=5 -run 'TestKeywordSnapshotsConcurrent|TestReadsShareTheReadLock' ./internal/mediastore/
	go test -race -count=5 -run 'TestAdoptedIndexCopyOnWrite' ./internal/mheg/engine/
	go test -race -count=5 -run 'TestCourseImageSharedCache|TestCourseImageRepublishUnderRevalidation' ./internal/navigator/

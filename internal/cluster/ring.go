package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring mapping object IDs to shard indices.
// Each shard contributes virtualNodes points on a uint64 circle; a key
// routes to the shard owning the first point at or after the key's
// hash. Consistent hashing (rather than hash-mod-N) keeps placement
// stable when the shard count changes: adding a shard moves only the
// keys that land on its new points, so a future resharding migrates a
// 1/N slice of the keyspace instead of reshuffling everything.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// virtualNodes balances placement evenness against lookup-table size:
// at 64 points per shard the per-shard keyspace share stays within a
// few percent of uniform for small clusters.
const virtualNodes = 64

// newRing builds the ring for nShards shards.
func newRing(nShards int) *ring {
	r := &ring{points: make([]ringPoint, 0, nShards*virtualNodes)}
	for s := 0; s < nShards; s++ {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("shard-%d#%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// hashKey hashes an object ID onto the circle: FNV-1a (fast and
// dependency-free) through a 64-bit avalanche finalizer. Raw FNV
// clusters badly on the near-identical short strings both the vnode
// labels and course names are — without the mixer a 2-shard ring came
// out 80/20 — so the MurmurHash3 fmix64 stage spreads the points
// uniformly around the circle.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //mits:allow deadlinecheck in-memory hash: Write cannot block
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 64-bit finalizer: a bijective avalanche so
// every input bit flips ~half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// shardFor maps an object ID to its owning shard index.
func (r *ring) shardFor(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the top arc
	}
	return r.points[i].shard
}

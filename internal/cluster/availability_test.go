package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mits/internal/faults"
	"mits/internal/sim"
	"mits/internal/transport"
)

// BenchmarkE31ClusterAvailability — the cluster availability/latency
// baseline of DESIGN §12: a 2-shard cluster (primary + 2 read replicas
// per shard, real TCP store nodes) serving keyed reads through the
// health-aware router at three damage levels — healthy, one replica
// down per shard, two replicas down per shard (primary-only). Each
// stage gets a short unmeasured warm-up so breakers trip and the
// health ordering settles (steady-state routing is what deployments
// run in), then b.N measured reads. Besides ns/op it reports each
// stage's p99 read latency and failed reads, and it is its own gate:
// it fails when e31Accept rejects what it measured (make cluster runs
// it at -benchtime=300x).
func BenchmarkE31ClusterAvailability(b *testing.B) {
	const (
		shards      = 2
		replicas    = 3 // nodes per shard: primary + 2 read replicas
		seedCourses = 8
	)
	nodes := make([][]*StoreNode, shards)
	cfg := Config{
		Policy: transport.RetryPolicy{
			Attempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		},
		BreakerThreshold: 3,
		BreakerCooldown:  60 * time.Millisecond,
		Seed:             0xE31BE,
	}
	for i := 0; i < shards; i++ {
		var sc ShardConfig
		for j := 0; j < replicas; j++ {
			name := fmt.Sprintf("bench/s%d/n%d", i, j)
			n, err := StartStoreNode(name, faults.Scenario{}, uint64(0xE31BE+31*i+j))
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			nodes[i] = append(nodes[i], n)
			sc.Replicas = append(sc.Replicas, ReplicaConfig{Name: name, Dial: n.Dialer(100 * time.Millisecond)})
		}
		cfg.Shards = append(cfg.Shards, sc)
	}
	router, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close()
	db := transport.DBClient{C: transport.Loopback{H: router}}

	refs := make([]string, seedCourses)
	for i := range refs {
		refs[i] = fmt.Sprintf("store/bench-course-%02d.mpg", i)
		if err := db.PutContent(refs[i], "mpeg", []byte(fmt.Sprintf("frames-%02d", i))); err != nil {
			b.Fatal(err)
		}
	}
	if !router.WaitConverged(5 * time.Second) {
		b.Fatalf("seed replication never converged: backlog %d", router.Backlog())
	}

	var stages [3]e31Stage // indexed by replicas down per shard
	b.ReportAllocs()
	b.ResetTimer()
	for down := range stages {
		// Damage is cumulative: stage N partitions the N-th read replica
		// of every shard.
		if down > 0 {
			for _, shard := range nodes {
				shard[down].Partition(true)
			}
		}
		b.StopTimer()
		for i := 0; i < 16; i++ { // warm-up: let breakers open, health order settle
			db.GetContent(refs[i%len(refs)])
		}
		b.StartTimer()
		var lat sim.Series
		st := &stages[down]
		for i := 0; i < b.N; i++ {
			start := time.Now()
			_, rerr := db.GetContent(refs[i%len(refs)])
			lat.AddDuration(time.Since(start))
			st.total++
			if rerr == nil {
				st.ok++
			}
		}
		st.p99 = lat.Percentile(99)
	}
	b.StopTimer()
	for _, shard := range nodes {
		shard[1].Partition(false)
		shard[2].Partition(false)
	}

	for down, st := range stages {
		b.ReportMetric(st.p99, fmt.Sprintf("down%d_p99_ns", down))
		b.ReportMetric(float64(st.total-st.ok), fmt.Sprintf("down%d_failed", down))
	}
	if err := e31Accept(stages); err != nil {
		b.Fatal(err)
	}
}

// e31Stage is what BenchmarkE31ClusterAvailability measured at one
// damage level: reads that succeeded out of reads issued, and the p99
// read latency in ns.
type e31Stage struct {
	ok, total int
	p99       float64
}

// e31Accept is the E31 gate of DESIGN §12 over the three stages
// (indexed by replicas down per shard): with one replica down per
// shard no read may fail and the p99 must stay within 3x the healthy
// p99. Two down (primary only) is reported, not gated. Under 100 reads
// per stage "p99" is the slowest of a handful of samples, so the
// discovery runs of go test -bench (b.N = 1, ...) are held to the
// availability half only. The error carries every stage's numbers.
func e31Accept(stages [3]e31Stage) error {
	healthy, oneDown := stages[0], stages[1]
	var why string
	switch {
	case oneDown.ok != oneDown.total:
		why = "reads failed with one replica down per shard"
	case oneDown.total >= 100 && oneDown.p99 > 3*healthy.p99:
		why = "one-down p99 exceeds 3x healthy"
	default:
		return nil
	}
	msg := "E31: " + why
	for down, st := range stages {
		msg += fmt.Sprintf("\n  %d down: %d/%d reads ok, p99 %s", down, st.ok, st.total, time.Duration(st.p99))
	}
	return errors.New(msg)
}

// TestE31Accept holds the E31 gate decision — the one enforced pair of
// benchmark bits, which make cluster applies to what
// BenchmarkE31ClusterAvailability measured — to its table.
func TestE31Accept(t *testing.T) {
	const ms = 1e6
	for _, tc := range []struct {
		name   string
		stages [3]e31Stage
		pass   bool
	}{
		{"all reads ok, ratio 1.05",
			[3]e31Stage{{300, 300, 1 * ms}, {300, 300, 1.05 * ms}, {300, 300, 1.2 * ms}}, true},
		{"one failed read at one-down",
			[3]e31Stage{{300, 300, 1 * ms}, {299, 300, 1.05 * ms}, {300, 300, 1.2 * ms}}, false},
		{"one-down p99 3.01x healthy",
			[3]e31Stage{{300, 300, 1 * ms}, {300, 300, 3.01 * ms}, {300, 300, 1.2 * ms}}, false},
		{"one-down p99 exactly 3x healthy",
			[3]e31Stage{{300, 300, 1 * ms}, {300, 300, 3 * ms}, {300, 300, 1.2 * ms}}, true},
		{"two-down failures and latency are not gated",
			[3]e31Stage{{300, 300, 1 * ms}, {300, 300, 1.05 * ms}, {120, 300, 50 * ms}}, true},
		{"discovery run: one sample is no p99",
			[3]e31Stage{{1, 1, 1 * ms}, {1, 1, 10 * ms}, {1, 1, 1 * ms}}, true},
		{"discovery run: a failed read still fails",
			[3]e31Stage{{1, 1, 1 * ms}, {0, 1, 1 * ms}, {1, 1, 1 * ms}}, false},
	} {
		err := e31Accept(tc.stages)
		if (err == nil) != tc.pass {
			t.Errorf("%s: pass=%v, want %v (err: %v)", tc.name, err == nil, tc.pass, err)
		}
		if err == nil {
			continue
		}
		// The failure is evidence, not a bit: every stage's counts and p99.
		for down, st := range tc.stages {
			want := fmt.Sprintf("%d down: %d/%d reads ok, p99 %s", down, st.ok, st.total, time.Duration(st.p99))
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error lacks %q:\n%v", tc.name, want, err)
			}
		}
	}
}

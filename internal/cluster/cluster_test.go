package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mits/internal/faults"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/transport"
)

// testPolicy keeps retries fast and bounded for in-process chaos.
func testPolicy() transport.RetryPolicy {
	return transport.RetryPolicy{
		Attempts:    2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	}
}

// testCluster spins up shards*replicas store nodes and a router over
// them. nodes[i][j] is shard i's j-th node, j==0 the primary.
func testCluster(t *testing.T, shards, replicasPerShard int) (*Router, [][]*StoreNode) {
	t.Helper()
	nodes := make([][]*StoreNode, shards)
	cfg := Config{
		Policy:           testPolicy(),
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		Seed:             0x5EED,
	}
	for i := 0; i < shards; i++ {
		var sc ShardConfig
		for j := 0; j < replicasPerShard; j++ {
			name := fmt.Sprintf("shard%d/node%d", i, j)
			n, err := StartStoreNode(name, faults.Scenario{}, uint64(1000+i*10+j))
			if err != nil {
				t.Fatalf("start node %s: %v", name, err)
			}
			t.Cleanup(func() { n.Close() })
			nodes[i] = append(nodes[i], n)
			sc.Replicas = append(sc.Replicas, ReplicaConfig{Name: name, Dial: n.Dialer(150 * time.Millisecond)})
		}
		cfg.Shards = append(cfg.Shards, sc)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("new router: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r, nodes
}

// routerClient speaks the typed database API through the router over
// an in-process loopback — what a navigator pointed at the cluster
// front door sees.
func routerClient(r *Router) transport.DBClient {
	return transport.DBClient{C: transport.Loopback{H: r}}
}

// TestRingPlacement pins the ring's contract: deterministic placement,
// full shard coverage, and every key owned by exactly one shard.
func TestRingPlacement(t *testing.T) {
	rg := newRing(3, 0)
	hit := make(map[int]int)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("store/object-%d.mpg", i)
		s := rg.shardFor(key)
		if s < 0 || s > 2 {
			t.Fatalf("key %q routed to shard %d", key, s)
		}
		if rg.shardFor(key) != s {
			t.Fatalf("key %q placement not deterministic", key)
		}
		hit[s]++
	}
	for s := 0; s < 3; s++ {
		// Reasonable balance: each shard within 2x of the uniform share
		// (the mixer exists precisely because raw FNV failed this).
		if hit[s] < 50 || hit[s] > 200 {
			t.Fatalf("shard %d owns %d of 300 keys, want near 100: %v", s, hit[s], hit)
		}
	}
}

// TestClusterWriteReadRouting: writes land on exactly the owning
// shard's primary, replicate to its read replicas, and reads through
// the router return them — the basic sharded round trip.
func TestClusterWriteReadRouting(t *testing.T) {
	r, nodes := testCluster(t, 2, 2)
	db := routerClient(r)

	docs := []string{"course-a", "course-b", "course-c", "course-d"}
	for _, name := range docs {
		if _, err := db.PutDocument(name, "T:"+name, "text", []byte("body of "+name)); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		if err := db.PutContent("store/"+name+".mpg", "mpeg", []byte("frames of "+name), "network/video"); err != nil {
			t.Fatalf("put content %s: %v", name, err)
		}
	}
	if !r.WaitConverged(2 * time.Second) {
		t.Fatalf("replication backlog never drained: %d pending", r.Backlog())
	}

	for _, name := range docs {
		owner := r.ShardFor(name)
		for i, shard := range nodes {
			_, err := shard[0].Store.GetDocument(name)
			if i == owner && err != nil {
				t.Fatalf("doc %s missing from owning shard %d primary: %v", name, i, err)
			}
			if i != owner && !errors.Is(err, mediastore.ErrNotFound) {
				t.Fatalf("doc %s leaked to shard %d (owner %d)", name, i, owner)
			}
		}
		// The replica of the owning shard converged to the same doc.
		if _, err := nodes[owner][1].Store.GetDocument(name); err != nil {
			t.Fatalf("doc %s not replicated on shard %d: %v", name, owner, err)
		}
		rec, err := db.GetSelectedDoc(name, 0)
		if err != nil {
			t.Fatalf("get %s through router: %v", name, err)
		}
		if string(rec.Data) != "body of "+name {
			t.Fatalf("doc %s body = %q", name, rec.Data)
		}
		crec, err := db.GetContent("store/" + name + ".mpg")
		if err != nil {
			t.Fatalf("get content %s: %v", name, err)
		}
		if string(crec.Data) != "frames of "+name {
			t.Fatalf("content %s data = %q", name, crec.Data)
		}
	}

	// Scatter-gather listing equals the union, sorted.
	names, err := db.GetListDoc()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if !reflect.DeepEqual(names, docs) {
		t.Fatalf("list = %v, want %v", names, docs)
	}
}

// TestDocumentDigestAcrossReplicas: the document digest is the same
// answer on every node of a shard. Once WaitConverged returns, each
// replica's Get_Selected_Doc carries the primary's digest; a read through
// the router that names that digest carries no Data; and once a routed
// PutDocument is acknowledged, a read through the primary returns the
// new bytes under a new digest.
func TestDocumentDigestAcrossReplicas(t *testing.T) {
	r, nodes := testCluster(t, 2, 3)
	db := routerClient(r)
	docs := []string{"course-a", "course-b", "course-c", "course-d"}
	for _, name := range docs {
		if _, err := db.PutDocument(name, "T:"+name, "asn1", []byte("first edition of "+name), "network/atm"); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
	}
	if !r.WaitConverged(2 * time.Second) {
		t.Fatalf("replication backlog never drained: %d pending", r.Backlog())
	}
	for _, name := range docs {
		shard := r.ShardFor(name)
		primary, err := nodes[shard][0].Store.GetDocument(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range r.Replicas(shard) {
			rec, err := rep.DB.GetSelectedDoc(name, 0)
			if err != nil || rec.Digest != primary.Digest || string(rec.Data) != string(primary.Data) {
				t.Errorf("%s on %s: %+v, %v; want the primary's copy under %#x", name, rep.Name, rec, err, primary.Digest)
			}
		}
		same, err := db.GetSelectedDoc(name, primary.Digest)
		if err != nil || same.Data != nil || same.Digest != primary.Digest {
			t.Errorf("revalidating %s through the router: %+v, %v; want no Data", name, same, err)
		}

		if _, err := db.PutDocument(name, "T:"+name, "asn1", []byte("second edition of "+name), "network/atm"); err != nil {
			t.Fatalf("republish %s: %v", name, err)
		}
		rec, err := r.Replicas(shard)[0].DB.GetSelectedDoc(name, primary.Digest)
		if err != nil || string(rec.Data) != "second edition of "+name || rec.Digest == primary.Digest {
			t.Errorf("%s through the primary after an acknowledged put: %+v, %v; want the second edition", name, rec, err)
		}
	}
}

// TestMissingDocIsNotFound: a miss through the whole cluster surfaces
// as the store's not-found error (remote, inspectable), not as a
// failover exhaustion.
func TestMissingDocIsNotFound(t *testing.T) {
	r, _ := testCluster(t, 2, 2)
	db := routerClient(r)
	_, err := db.GetSelectedDoc("no-such-course", 0)
	if err == nil {
		t.Fatal("missing doc returned no error")
	}
	var remote *transport.RemoteError
	if !errors.As(err, &remote) || !isNotFound(err) {
		t.Fatalf("miss error = %v, want remote not-found", err)
	}
	if errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("clean miss reported as failover exhaustion: %v", err)
	}
}

// TestReadFailoverReplicaDown is E31's availability bit, exact: over 2
// shards x (primary + 2 read replicas), with keys on both shards, no
// read fails healthy or with one read replica down per shard (the
// ladder falls through to the next node, and the failover counter
// moves), and with every read replica down the primary, the last
// rung, still serves. A failure prints every stage's ok/total.
func TestReadFailoverReplicaDown(t *testing.T) {
	r, nodes := testCluster(t, 2, 3)
	db := routerClient(r)
	var names []string
	perShard := map[int]int{}
	for i := 0; perShard[0] < 2 || perShard[1] < 2; i++ {
		name := fmt.Sprintf("course-%d", i)
		if _, err := db.PutDocument(name, "X", "text", []byte(name+" body")); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		perShard[r.ShardFor(name)]++
	}
	if !r.WaitConverged(2 * time.Second) {
		t.Fatalf("replication never converged")
	}

	var stages [3]struct {
		ok, total int
		first     error
	} // indexed by read replicas down per shard
	var failovers int64
	cut := func(shard int, rep *Replica) {
		for _, n := range nodes[shard] {
			if n.Name == rep.Name {
				n.Partition(true)
				t.Cleanup(func() { n.Partition(false) })
			}
		}
	}
	for down := range stages {
		// Damage is cumulative. One down cuts, in every shard, the read
		// replica the ladder tries first, so the stage reads through a
		// failover rather than around one; two down cuts both.
		for i, sh := range r.shards {
			switch down {
			case 1:
				cut(i, orderByHealth(sh.replicas)[0])
			case 2:
				for _, rep := range sh.replicas {
					cut(i, rep)
				}
			}
		}
		before := obs.GetCounter("cluster_read_failovers_total").Value()
		st := &stages[down]
		for i := 0; i < 3*len(names); i++ {
			name := names[i%len(names)]
			rec, err := db.GetSelectedDoc(name, 0)
			if err == nil && string(rec.Data) != name+" body" {
				err = fmt.Errorf("%s read back %q", name, rec.Data)
			}
			st.total++
			if err == nil {
				st.ok++
			} else if st.first == nil {
				st.first = err
			}
		}
		if down == 1 {
			failovers = obs.GetCounter("cluster_read_failovers_total").Value() - before
		}
	}
	var evidence string
	failed := failovers == 0
	for down, st := range stages {
		evidence += fmt.Sprintf("\n  %d down: %d/%d reads ok", down, st.ok, st.total)
		if st.first != nil {
			evidence += fmt.Sprintf(", first error: %v", st.first)
		}
		failed = failed || st.ok != st.total
	}
	if failed {
		t.Fatalf("read replicas down per shard (failovers at one down: %d):%s", failovers, evidence)
	}
}

// TestReplicationHealsAfterPartition: a write accepted while a replica
// is partitioned is not lost — the applier parks on it and converges
// the replica when the partition heals (heal-while-streaming's write
// half).
func TestReplicationHealsAfterPartition(t *testing.T) {
	r, nodes := testCluster(t, 1, 2)
	db := routerClient(r)

	nodes[0][1].Partition(true)
	if _, err := db.PutDocument("late-course", "L", "text", []byte("late body")); err != nil {
		t.Fatalf("write with replica partitioned: %v", err)
	}
	// The replica cannot converge while cut off.
	if r.WaitConverged(50 * time.Millisecond) {
		t.Fatal("backlog drained into a partitioned replica")
	}
	if _, err := nodes[0][1].Store.GetDocument("late-course"); !errors.Is(err, mediastore.ErrNotFound) {
		t.Fatalf("partitioned replica has the doc: %v", err)
	}
	// Reads are unaffected throughout: primary serves.
	if _, err := db.GetSelectedDoc("late-course", 0); err != nil {
		t.Fatalf("read during replica partition: %v", err)
	}

	nodes[0][1].Partition(false)
	if !r.WaitConverged(3 * time.Second) {
		t.Fatalf("replica never converged after heal: backlog %d", r.Backlog())
	}
	rec, err := nodes[0][1].Store.GetDocument("late-course")
	if err != nil {
		t.Fatalf("healed replica missing the doc: %v", err)
	}
	if string(rec.Data) != "late body" {
		t.Fatalf("healed replica body = %q", rec.Data)
	}
}

// TestScatterGatherPartialDegradation: keyword search with one shard
// dark returns the surviving shards' results and counts the
// degradation; with every shard dark it fails with ErrNoQuorum.
func TestScatterGatherPartialDegradation(t *testing.T) {
	r, nodes := testCluster(t, 2, 2)
	db := routerClient(r)

	// Spread keyworded docs until both shards own at least one.
	byShard := map[int][]string{}
	for i := 0; len(byShard[0]) == 0 || len(byShard[1]) == 0; i++ {
		name := fmt.Sprintf("kw-course-%d", i)
		if _, err := db.PutDocument(name, "K", "text", []byte("k"), "network/atm"); err != nil {
			t.Fatal(err)
		}
		owner := r.ShardFor(name)
		byShard[owner] = append(byShard[owner], name)
	}
	if !r.WaitConverged(2 * time.Second) {
		t.Fatal("replication never converged")
	}
	all, err := db.GetDocByKeyword("network/atm")
	if err != nil {
		t.Fatalf("healthy keyword search: %v", err)
	}
	if len(all) != len(byShard[0])+len(byShard[1]) {
		t.Fatalf("healthy search found %d docs, want %d", len(all), len(byShard[0])+len(byShard[1]))
	}

	// Shard 1 goes completely dark.
	partialBefore := obs.GetCounter("cluster_search_partial_total").Value()
	for _, n := range nodes[1] {
		n.Partition(true)
	}
	defer func() {
		for _, n := range nodes[1] {
			n.Partition(false)
		}
	}()
	got, err := db.GetDocByKeyword("network/atm")
	if err != nil {
		t.Fatalf("degraded keyword search: %v", err)
	}
	if len(got) != len(byShard[0]) {
		t.Fatalf("degraded search = %v, want shard0's %v", got, byShard[0])
	}
	if obs.GetCounter("cluster_search_partial_total").Value() == partialBefore {
		t.Fatal("partial result not counted")
	}
	if obs.GetGauge("cluster_search_shards_failed").Value() != 1 {
		t.Fatalf("shards-failed gauge = %d, want 1", obs.GetGauge("cluster_search_shards_failed").Value())
	}
	// Keyed reads on the surviving shard are untouched by the outage.
	for _, name := range byShard[0] {
		if _, err := db.GetSelectedDoc(name, 0); err != nil {
			t.Fatalf("read %s on the surviving shard: %v", name, err)
		}
	}

	// Total blackout: every shard dark → ErrNoQuorum, not a silent nil.
	for _, n := range nodes[0] {
		n.Partition(true)
	}
	defer func() {
		for _, n := range nodes[0] {
			n.Partition(false)
		}
	}()
	if _, err := db.GetListDoc(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("blackout list error = %v, want ErrNoQuorum", err)
	}
}

// TestKeywordTreeMerge: the merged cluster tree is identical to the
// tree one store holding every document would build.
func TestKeywordTreeMerge(t *testing.T) {
	r, _ := testCluster(t, 3, 1)
	db := routerClient(r)
	reference := mediastore.New()

	seed := []struct {
		name string
		kws  []string
	}{
		{"tree-a", []string{"network/atm", "broadband"}},
		{"tree-b", []string{"network/atm/signalling"}},
		{"tree-c", []string{"network/basics", "broadband"}},
		{"tree-d", []string{"media/mpeg"}},
	}
	for _, s := range seed {
		if _, err := db.PutDocument(s.name, "T", "text", []byte("b"), s.kws...); err != nil {
			t.Fatal(err)
		}
		if _, err := reference.PutDocument(s.name, "T", "text", []byte("b"), s.kws...); err != nil {
			t.Fatal(err)
		}
	}
	got, tag, err := db.GetKeywordTree(0)
	if err != nil {
		t.Fatalf("cluster keyword tree: %v", err)
	}
	want, wantTag := reference.Keywords()
	if !reflect.DeepEqual(got, want) || tag != wantTag {
		t.Fatalf("merged tree = %+v tag %#x, want %+v tag %#x", got, tag, want, wantTag)
	}
}

// TestRouterSharesRetryBudget: every replica client composes the one
// cluster-wide budget, so simultaneous failures cannot multiply
// retries beyond it.
func TestRouterSharesRetryBudget(t *testing.T) {
	r, _ := testCluster(t, 2, 2)
	if r.Budget() == nil {
		t.Fatal("router built without a shared retry budget")
	}
	// 4 replicas: default budget is 2 tokens per replica.
	if got := r.Budget().Tokens(); got != 8 {
		t.Fatalf("default budget tokens = %v, want 8", got)
	}
}

// TestSpecParsing pins the -cluster topology grammar.
func TestSpecParsing(t *testing.T) {
	shards, err := ParseSpec("a:1,b:2 ; c:3", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || len(shards[0].Replicas) != 2 || len(shards[1].Replicas) != 1 {
		t.Fatalf("parsed shape: %+v", shards)
	}
	if shards[0].Replicas[0].Name != "shard0/primary@a:1" {
		t.Fatalf("primary name = %q", shards[0].Replicas[0].Name)
	}
	if _, err := ParseSpec("a:1,,b:2", time.Second); err == nil {
		t.Fatal("empty replica address accepted")
	}
	if _, err := ParseSpec("  ", time.Second); err == nil {
		t.Fatal("blank spec accepted")
	}
}

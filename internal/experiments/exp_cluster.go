package experiments

import (
	"errors"
	"fmt"
	"time"

	"mits/internal/cluster"
	"mits/internal/faults"
	"mits/internal/obs"
	"mits/internal/transport"
)

// E31Cluster drives the sharded, replicated MEDIASTORE cluster of
// DESIGN §12 through the chaos scenarios the availability claim rests
// on. Three scenarios, one per failure class:
//
//   - replica-kill: one read replica per shard drops off the network;
//     every read must keep succeeding through the failover ladder
//     (the acceptance bar: 100% read availability with one replica
//     down per shard).
//   - shard-partition: an entire shard goes dark; keyword search
//     degrades to partial results (the surviving shards' answers,
//     counted in cluster_search_partial_total) instead of failing,
//     and keyed reads on the surviving shards are untouched.
//   - heal-while-streaming: writes accepted during a replica's
//     partition park in the replication queue and converge after the
//     heal, while a reader streams chunked content across the kill
//     and heal without one caller-visible error.
//
// Every node is a real TCP store behind a seeded fault injector, and
// the router stacks the per-replica breaker/retry clients over one
// shared retry budget — the same wiring cmd/mitsd -cluster deploys.
func E31Cluster() (*Report, error) {
	r := &Report{
		ID: "E31", Figure: "DESIGN §12", Title: "Cluster: sharded replicated store vs chaos",
		Header: []string{"scenario", "reads", "ok", "failed", "failovers", "outcome"},
		Pass:   true,
	}

	row, err := clusterReplicaKill()
	if err != nil {
		return nil, fmt.Errorf("E31 replica-kill: %w", err)
	}
	r.Rows = append(r.Rows, row.cells)
	r.Pass = r.Pass && row.pass

	row, err = clusterShardPartition()
	if err != nil {
		return nil, fmt.Errorf("E31 shard-partition: %w", err)
	}
	r.Rows = append(r.Rows, row.cells)
	r.Pass = r.Pass && row.pass

	row, err = clusterHealWhileStreaming()
	if err != nil {
		return nil, fmt.Errorf("E31 heal-while-streaming: %w", err)
	}
	r.Rows = append(r.Rows, row.cells)
	r.Pass = r.Pass && row.pass

	r.Notes = append(r.Notes,
		"2 shards x (primary+2 replicas); every node a TCP store behind a seeded injector",
		"acceptance: one replica down per shard => zero failed reads (100% availability)")
	return r, nil
}

type clusterRow struct {
	cells []string
	pass  bool
}

// clusterStack spins up shards x replicasPerShard TCP store nodes and
// a router over them; the caller gets the nodes for chaos injection
// and must close the returned router (which owns the client stacks).
func clusterStack(shards, replicasPerShard int, seed uint64) (*cluster.Router, [][]*cluster.StoreNode, func(), error) {
	nodes := make([][]*cluster.StoreNode, shards)
	cfg := cluster.Config{
		Policy: transport.RetryPolicy{
			Attempts:    2,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
		},
		BreakerThreshold: 3,
		BreakerCooldown:  60 * time.Millisecond,
		Seed:             seed,
	}
	teardown := func() {
		for _, shard := range nodes {
			for _, n := range shard {
				if n != nil {
					n.Close()
				}
			}
		}
	}
	for i := 0; i < shards; i++ {
		var sc cluster.ShardConfig
		for j := 0; j < replicasPerShard; j++ {
			name := fmt.Sprintf("e31/s%d/n%d", i, j)
			n, err := cluster.StartStoreNode(name, faults.Scenario{}, seed+uint64(31*i+j))
			if err != nil {
				teardown()
				return nil, nil, nil, err
			}
			nodes[i] = append(nodes[i], n)
			sc.Replicas = append(sc.Replicas, cluster.ReplicaConfig{Name: name, Dial: n.Dialer(150 * time.Millisecond)})
		}
		cfg.Shards = append(cfg.Shards, sc)
	}
	router, err := cluster.New(cfg)
	if err != nil {
		teardown()
		return nil, nil, nil, err
	}
	return router, nodes, teardown, nil
}

// seedCluster publishes docs+content through the router and waits for
// full replication, returning the doc names.
func seedCluster(router *cluster.Router, count int) ([]string, error) {
	db := transport.DBClient{C: transport.Loopback{H: router}}
	names := make([]string, 0, count)
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("course-%02d", i)
		if _, err := db.PutDocument(name, "Course "+name, "text", []byte("body of "+name), "network/atm"); err != nil {
			return nil, err
		}
		if err := db.PutContent("store/"+name+".mpg", "mpeg", []byte("frames of "+name)); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	if !router.WaitConverged(5 * time.Second) {
		return nil, fmt.Errorf("seed replication never converged (backlog %d)", router.Backlog())
	}
	return names, nil
}

// clusterReplicaKill is the acceptance scenario: one read replica per
// shard partitioned, zero failed reads allowed.
func clusterReplicaKill() (clusterRow, error) {
	router, nodes, teardown, err := clusterStack(2, 3, 0xE31A)
	if err != nil {
		return clusterRow{}, err
	}
	defer teardown()
	defer router.Close()

	names, err := seedCluster(router, 8)
	if err != nil {
		return clusterRow{}, err
	}
	db := transport.DBClient{C: transport.Loopback{H: router}}

	// Kill the first read replica of every shard.
	for _, shard := range nodes {
		shard[1].Partition(true)
	}
	failoversBefore := obs.GetCounter("cluster_read_failovers_total").Value()
	reads, ok, failed := 0, 0, 0
	for round := 0; round < 4; round++ {
		for _, name := range names {
			reads += 2
			if _, err := db.GetSelectedDoc(name); err == nil {
				ok++
			} else {
				failed++
			}
			if _, err := db.GetContent("store/" + name + ".mpg"); err == nil {
				ok++
			} else {
				failed++
			}
		}
	}
	failovers := obs.GetCounter("cluster_read_failovers_total").Value() - failoversBefore
	pass := failed == 0 && failovers > 0
	outcome := "100% available"
	if !pass {
		outcome = "reads failed"
	}
	return clusterRow{
		cells: []string{"replica-kill", fmt.Sprint(reads), fmt.Sprint(ok), fmt.Sprint(failed), fmt.Sprint(failovers), outcome},
		pass:  pass,
	}, nil
}

// clusterShardPartition darkens one whole shard: keyword search must
// return the surviving shards' answers (partial, counted), and a
// total blackout must be a typed error.
func clusterShardPartition() (clusterRow, error) {
	router, nodes, teardown, err := clusterStack(2, 2, 0xE31B)
	if err != nil {
		return clusterRow{}, err
	}
	defer teardown()
	defer router.Close()

	names, err := seedCluster(router, 8)
	if err != nil {
		return clusterRow{}, err
	}
	db := transport.DBClient{C: transport.Loopback{H: router}}

	// Count the keyspace split so the partial result is checkable.
	dark, surviving := 0, 0
	for _, name := range names {
		if router.ShardFor(name) == 1 {
			dark++
		} else {
			surviving++
		}
	}

	partialBefore := obs.GetCounter("cluster_search_partial_total").Value()
	for _, n := range nodes[1] {
		n.Partition(true)
	}
	got, err := db.GetDocByKeyword("network/atm")
	reads, ok, failed := 1, 0, 0
	if err == nil && len(got) == surviving {
		ok++
	} else {
		failed++
	}
	// Keyed reads on the surviving shard are untouched by the partition.
	for _, name := range names {
		if router.ShardFor(name) != 0 {
			continue
		}
		reads++
		if _, err := db.GetSelectedDoc(name); err == nil {
			ok++
		} else {
			failed++
		}
	}
	counted := obs.GetCounter("cluster_search_partial_total").Value() > partialBefore

	// Blackout: both shards dark must surface ErrNoQuorum, not a hang
	// or a silent empty answer.
	for _, n := range nodes[0] {
		n.Partition(true)
	}
	_, blackoutErr := db.GetListDoc()
	typedBlackout := errors.Is(blackoutErr, cluster.ErrNoQuorum)

	pass := failed == 0 && dark > 0 && surviving > 0 && counted && typedBlackout
	outcome := fmt.Sprintf("partial: %d/%d docs", surviving, dark+surviving)
	if !pass {
		outcome = "degradation broke"
	}
	return clusterRow{
		cells: []string{"shard-partition", fmt.Sprint(reads), fmt.Sprint(ok), fmt.Sprint(failed), "-", outcome},
		pass:  pass,
	}, nil
}

// clusterHealWhileStreaming kills a replica under a streaming reader,
// keeps writing through the outage, heals, and requires convergence.
func clusterHealWhileStreaming() (clusterRow, error) {
	router, nodes, teardown, err := clusterStack(1, 3, 0xE31C)
	if err != nil {
		return clusterRow{}, err
	}
	defer teardown()
	defer router.Close()

	db := transport.DBClient{C: transport.Loopback{H: router}}
	const chunks = 16
	for i := 0; i < chunks; i++ {
		if err := db.PutContent(fmt.Sprintf("store/stream/chunk-%02d.mpg", i), "mpeg", []byte(fmt.Sprintf("frame-%02d", i))); err != nil {
			return clusterRow{}, err
		}
	}
	if !router.WaitConverged(5 * time.Second) {
		return clusterRow{}, fmt.Errorf("seed replication never converged")
	}

	reads, ok, failed := 0, 0, 0
	lateWrites := 0
	for i := 0; i < chunks; i++ {
		if i == chunks/3 {
			// Mid-stream: both read replicas die; the ladder must land
			// every remaining chunk on the primary.
			nodes[0][1].Partition(true)
			nodes[0][2].Partition(true)
		}
		if i == chunks/2 {
			// Writes continue through the outage; replication parks.
			for w := 0; w < 4; w++ {
				if err := db.PutContent(fmt.Sprintf("store/stream/late-%02d.mpg", w), "mpeg", []byte("late")); err != nil {
					return clusterRow{}, fmt.Errorf("write during outage: %w", err)
				}
				lateWrites++
			}
		}
		reads++
		rec, err := db.GetContent(fmt.Sprintf("store/stream/chunk-%02d.mpg", i))
		if err == nil && string(rec.Data) == fmt.Sprintf("frame-%02d", i) {
			ok++
		} else {
			failed++
		}
	}

	// Heal and require the parked writes to land on both replicas.
	nodes[0][1].Partition(false)
	nodes[0][2].Partition(false)
	converged := router.WaitConverged(5 * time.Second)
	replicated := true
	for rep := 1; rep <= 2 && converged; rep++ {
		for w := 0; w < lateWrites; w++ {
			if _, err := nodes[0][rep].Store.GetContent(fmt.Sprintf("store/stream/late-%02d.mpg", w)); err != nil {
				replicated = false
			}
		}
	}
	pass := failed == 0 && converged && replicated
	outcome := fmt.Sprintf("streamed across kill+heal; %d late writes converged", lateWrites)
	if !pass {
		outcome = fmt.Sprintf("failed=%d converged=%v replicated=%v", failed, converged, replicated)
	}
	return clusterRow{
		cells: []string{"heal-while-streaming", fmt.Sprint(reads), fmt.Sprint(ok), fmt.Sprint(failed), "-", outcome},
		pass:  pass,
	}, nil
}

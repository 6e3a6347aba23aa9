package transport_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"mits/internal/cluster"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/transport"
)

// TestRoutedReadAllocBudget: what one db.GetContent of a 64 KB object
// costs through a cluster router with nothing but the program in the
// way — router, breaker, retry, stub layer and store, each node reached
// over Loopback — in allocations, and in pooled buffers dropped: none.
// The count repeats exactly, so it is a ceiling in go test, not a timed
// gate. With a fresh gob encoder and decoder per message the relay
// cost 332 allocations and the typed round trip 526, and the router
// dropped a zeroed 256 KB-class buffer per read.
func TestRoutedReadAllocBudget(t *testing.T) {
	const ref = "library/o0001.bin"
	data := bytes.Repeat([]byte{0x5A}, 64<<10)
	var sc cluster.ShardConfig
	for j := 0; j < 3; j++ {
		store := mediastore.New()
		if err := store.PutContent(ref, "ascii", data); err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		transport.RegisterStore(mux, store)
		sc.Replicas = append(sc.Replicas, cluster.ReplicaConfig{
			Dial: func() (transport.Client, error) { return transport.Loopback{H: mux}, nil },
		})
	}
	router, err := cluster.New(cluster.Config{Shards: []cluster.ShardConfig{sc}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close() //mits:allow errdrop test teardown
	req, err := transport.EncodeGetContent(ref)
	if err != nil {
		t.Fatal(err)
	}

	var audit atomic.Int64
	transport.BufAudit.Store(&audit)
	defer transport.BufAudit.Store(nil)
	relayed := testing.AllocsPerRun(200, func() {
		out, release, err := router.HandleCtxPooled(obs.SpanContext{}, transport.MethodGetContent, req)
		if err != nil || len(out) < len(data) || release == nil {
			t.Fatalf("routed read: %d bytes, release %v, %v", len(out), release != nil, err)
		}
		release()
	})
	if n := audit.Load(); n != 0 {
		t.Errorf("the relay dropped %d pooled buffers", n)
	}
	// The whole call as a navigator makes it: encode the request, route,
	// relay, decode the record (gob's message buffer and the record's
	// Data are the two 64 KB allocations left, ROADMAP 3d).
	db := transport.DBClient{C: transport.Loopback{H: router}}
	typed := testing.AllocsPerRun(200, func() {
		if rec, err := db.GetContent(ref); err != nil || !bytes.Equal(rec.Data, data) {
			t.Fatalf("GetContent through the router: %v", err)
		}
	})
	if n := audit.Load(); n != 0 {
		t.Errorf("the typed call dropped %d pooled buffers", n)
	}
	t.Logf("routed db.GetContent, 64 KB: relay %.0f allocs/op, typed round trip %.0f allocs/op", relayed, typed)
	if transport.RaceEnabled {
		return // sync.Pool is lossy on purpose under the race detector
	}
	if relayed > 20 {
		t.Errorf("relaying one routed read costs %.0f allocs/op, budget 20", relayed)
	}
	if typed > 32 {
		t.Errorf("one routed db.GetContent costs %.0f allocs/op, budget 32", typed)
	}
}

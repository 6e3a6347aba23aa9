package transport_test

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"mits/internal/cluster"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/transport"
)

// TestRoutedReadAllocBudget: what one db.GetContent of a 64 KB object
// costs with nothing but the program in the way, in allocations, in
// bytes allocated (runtime.MemStats brackets with the collector held
// off) and in pooled buffers dropped: none. Rows: a cluster router
// relaying the read — router, breaker, retry and store, each node
// reached over Loopback — and the whole typed call as a navigator makes
// it, through that router, straight at a store's mux, and over a TCP
// pool (both ends of the socket in this process, so the server's side
// counts too). The counts repeat exactly, so they are ceilings in go
// test, not timed gates. The object's own 64 KB — the record the caller
// keeps — is the one large allocation left, and the relay makes none:
// while the reply was a gob ContentRecord the typed call cost 32
// allocations and 160 KB (gob's message buffer, then its copy of Data),
// and with a fresh encoder and decoder per message 526 and 604 KB.
func TestRoutedReadAllocBudget(t *testing.T) {
	const ref = "library/o0001.bin"
	data := bytes.Repeat([]byte{0x5A}, 64<<10)
	var sc cluster.ShardConfig
	var mux *transport.Mux
	for j := 0; j < 3; j++ {
		store := mediastore.New()
		if err := store.PutContent(ref, "ascii", data, "library/bin"); err != nil {
			t.Fatal(err)
		}
		mux = transport.NewMux()
		transport.RegisterStore(mux, store)
		node := mux
		sc.Replicas = append(sc.Replicas, cluster.ReplicaConfig{
			Dial: func() (transport.Client, error) { return transport.Loopback{H: node}, nil },
		})
	}
	router, err := cluster.New(cluster.Config{Shards: []cluster.ShardConfig{sc}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	srv := transport.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := transport.DialTCPPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	req, err := transport.EncodeGetContent(ref)
	if err != nil {
		t.Fatal(err)
	}
	typed := func(c transport.Client) func() {
		db := transport.DBClient{C: c}
		return func() {
			if rec, err := db.GetContent(ref); err != nil || !bytes.Equal(rec.Data, data) {
				t.Fatalf("GetContent: %v", err)
			}
		}
	}

	var audit atomic.Int64
	transport.BufAudit.Store(&audit)
	defer transport.BufAudit.Store(nil)
	const object = 64 << 10
	for _, row := range []struct {
		name          string
		op            func()
		allocs, bytes uint64 // ceilings per op
	}{
		{"router relay", func() {
			out, release, err := router.HandleCtxPooled(obs.SpanContext{}, transport.MethodGetContent, req)
			if err != nil || len(out) < len(data) || release == nil {
				t.Fatalf("routed read: %d bytes, release %v, %v", len(out), release != nil, err)
			}
			release()
		}, 16, 2 << 10},
		{"typed, through the router", typed(transport.Loopback{H: router}), 24, object + 4<<10},
		{"typed, at the store's mux", typed(transport.Loopback{H: mux}), 16, object + 4<<10},
		{"typed, over a TCP pool", typed(pool), 40, object + 4<<10},
	} {
		// With the collector held off the pools only fill, so a pool
		// miss — a goroutine asking on a P whose cache is empty while the
		// buffers sit in another's — can happen a handful of times at
		// most, ever: the cheapest of eight brackets saw none.
		gc := debug.SetGCPercent(-1)
		for i := 0; i < 50; i++ {
			row.op() // primes the codecs too
		}
		held := settled(&audit)
		allocs := uint64(testing.AllocsPerRun(100, row.op))
		perOp := uint64(math.MaxUint64)
		for bracket := 0; bracket < 8; bracket++ {
			const ops = 25
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < ops; i++ {
				row.op()
			}
			runtime.ReadMemStats(&after)
			perOp = min(perOp, (after.TotalAlloc-before.TotalAlloc)/ops)
		}
		debug.SetGCPercent(gc)
		if n := settled(&audit) - held; n != 0 {
			t.Errorf("%s: %d pooled buffers dropped", row.name, n)
		}
		t.Logf("db.GetContent, 64 KB, %s: %d allocs/op, %d bytes/op", row.name, allocs, perOp)
		if transport.RaceEnabled {
			continue // sync.Pool is lossy on purpose under the race detector
		}
		if allocs > row.allocs {
			t.Errorf("%s: %d allocs/op, budget %d", row.name, allocs, row.allocs)
		}
		if perOp > row.bytes {
			t.Errorf("%s: %d bytes allocated per op, budget %d", row.name, perOp, row.bytes)
		}
	}
}

// settled reads the pooled-buffer audit once it has stopped moving: a
// TCP server gives a response's buffer back after the client has its
// bytes, so the call returning does not mean that has happened yet.
func settled(audit *atomic.Int64) int64 {
	for last, same := audit.Load(), 0; ; {
		time.Sleep(time.Millisecond)
		if now := audit.Load(); now != last {
			last, same = now, 0
		} else if same++; same == 20 {
			return last
		}
	}
}

package transport

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mits/internal/cache"
)

// countingClient wraps a Client and counts upstream calls per method.
type countingClient struct {
	Client
	calls atomic.Int64
}

func (c *countingClient) Call(method string, payload []byte) ([]byte, error) {
	if method == MethodGetContent {
		c.calls.Add(1)
	}
	return c.Client.Call(method, payload)
}

// TestDBClientContentCacheHitAvoidsUpstream: the second GetContent for
// a ref is served locally, and FetchContent (the engine's resolver
// path) shares the same cache.
func TestDBClientContentCacheHitAvoidsUpstream(t *testing.T) {
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	cc := &countingClient{Client: Loopback{H: mux}}
	db := DBClient{C: cc, ContentCache: cache.New("t-db", 1<<20)}

	rec1, err := db.GetContent("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := db.GetContent("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.FetchContent("store/v.mpg"); err != nil {
		t.Fatal(err)
	}
	if n := cc.calls.Load(); n != 1 {
		t.Fatalf("upstream GetContent ran %d times, want 1 (cache miss only)", n)
	}
	if !bytes.Equal(rec1.Data, rec2.Data) {
		t.Fatal("hit returned different bytes than the miss")
	}

	// Immutable-bytes handoff: hits share one record (zero copies on
	// the hot path), so repeat hits must return the same backing data.
	rec3, err := db.GetContent("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if &rec2.Data[0] != &rec3.Data[0] {
		t.Fatal("cache hits did not share the record: hot path is copying")
	}
}

// TestDBClientContentCacheSingleflight: a stampede of concurrent
// fetches for one cold ref issues a single upstream call.
func TestDBClientContentCacheSingleflight(t *testing.T) {
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	gate := make(chan struct{})
	gated := HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		if method == MethodGetContent {
			<-gate // hold the first fetch open until the stampede queues
		}
		return mux.Handle(method, payload)
	})
	cc := &countingClient{Client: Loopback{H: gated}}
	db := DBClient{C: cc, ContentCache: cache.New("t-flight-db", 1<<20)}

	const waiters = 16
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := db.GetContent("store/v.mpg")
			if err != nil {
				t.Errorf("stampede fetch: %v", err)
			} else if len(rec.Data) != 100000 {
				t.Errorf("stampede fetch returned %d bytes", len(rec.Data))
			}
		}()
	}
	waitFor(t, func() bool { return cc.calls.Load() == 1 })
	close(gate)
	wg.Wait()
	if n := cc.calls.Load(); n != 1 {
		t.Fatalf("stampede issued %d upstream calls, want 1", n)
	}
}

// TestDBClientContentCacheErrorNotCached: a miss that fails upstream
// is retried by the next call, and errors keep their types through the
// cache.
func TestDBClientContentCacheErrorNotCached(t *testing.T) {
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	var failing atomic.Bool
	failing.Store(true)
	flaky := HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		if method == MethodGetContent && failing.Load() {
			return nil, errors.New("store offline")
		}
		return mux.Handle(method, payload)
	})
	db := DBClient{C: Loopback{H: flaky}, ContentCache: cache.New("t-err-db", 1<<20)}

	if _, err := db.GetContent("store/v.mpg"); err == nil {
		t.Fatal("failed fetch reported success")
	}
	failing.Store(false)
	rec, err := db.GetContent("store/v.mpg")
	if err != nil {
		t.Fatalf("fetch after recovery: %v", err)
	}
	if len(rec.Data) != 100000 {
		t.Fatalf("recovered fetch returned %d bytes", len(rec.Data))
	}
}

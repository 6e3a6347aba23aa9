package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// resident reports the objects and bytes the cache holds.
func resident(c *Cache) (objects int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.bytes
}

func TestLRUEvictsColdEnd(t *testing.T) {
	c := New("t-evict", 100)
	c.Add("a", "A", 40)
	c.Add("b", "B", 40)
	if _, ok := c.Get("a"); !ok { // refresh a: b is now coldest
		t.Fatal("a missing")
	}
	c.Add("c", "C", 40) // 120 > 100: evict b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being coldest")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want only b", k)
		}
	}
	if n, b := resident(c); b != 80 || n != 2 {
		t.Fatalf("bytes=%d len=%d, want 80/2", b, n)
	}
}

func TestLRUReplaceAdjustsCost(t *testing.T) {
	c := New("t-replace", 100)
	c.Add("a", "A", 60)
	c.Add("a", "A2", 30)
	if n, b := resident(c); b != 30 || n != 1 {
		t.Fatalf("bytes=%d len=%d after replace, want 30/1", b, n)
	}
	if v, _ := c.Get("a"); v != "A2" {
		t.Fatalf("got %v, want replacement", v)
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := New("t-oversize", 100)
	c.Add("big", "B", 101)
	if n, b := resident(c); n != 0 || b != 0 {
		t.Fatal("value larger than the whole cache was stored")
	}
}

func TestRemove(t *testing.T) {
	c := New("t-remove", 100)
	c.Add("a", "A", 10)
	c.Remove("a")
	c.Remove("a") // idempotent
	if _, ok := c.Get("a"); ok {
		t.Fatal("Remove left the key")
	}
	if n, b := resident(c); n != 0 || b != 0 {
		t.Fatalf("Remove left %d objects, %d bytes", n, b)
	}
}

// TestSingleflight is the stampede contract: N concurrent misses for
// one key run the fetch exactly once and all share its value.
func TestSingleflight(t *testing.T) {
	c := New("t-flight", 1<<20)
	var fetches atomic.Int64
	gate := make(chan struct{})
	const waiters = 32
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrFill("hot", func() (any, int64, error) {
				fetches.Add(1)
				<-gate // hold the flight open until all waiters queued
				return "payload", 7, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := fetches.Load(); n != 1 {
		t.Fatalf("fetch ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != "payload" {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
	if v, err := c.GetOrFill("hot", func() (any, int64, error) {
		t.Fatal("fetch ran on a warm key")
		return nil, 0, nil
	}); err != nil || v != "payload" {
		t.Fatalf("warm read: %v %v", v, err)
	}
}

// TestFillErrorNotCached: a failed fill reaches every waiter of that
// flight but the next call tries again.
func TestFillErrorNotCached(t *testing.T) {
	c := New("t-err", 100)
	boom := errors.New("upstream down")
	if _, err := c.GetOrFill("k", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want fill error", err)
	}
	if n, _ := resident(c); n != 0 {
		t.Fatal("error was cached")
	}
	v, err := c.GetOrFill("k", func() (any, int64, error) { return "ok", 2, nil })
	if err != nil || v != "ok" {
		t.Fatalf("recovery fill: %v %v", v, err)
	}
}

// TestConcurrentMixedKeys hammers the cache under -race.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New("t-race", 512)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				v, err := c.GetOrFill(key, func() (any, int64, error) { return key, 64, nil })
				if err != nil || v != key {
					t.Errorf("GetOrFill(%s) = %v, %v", key, v, err)
					return
				}
				if i%17 == 0 {
					c.Remove(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if _, b := resident(c); b > 512 {
		t.Fatalf("cache over bound: %d bytes", b)
	}
}

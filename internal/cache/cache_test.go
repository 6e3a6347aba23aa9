package cache

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"strconv"
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

// TestOversizedReplaceDropsTheOldValue: a replacement too large for
// the whole cache is not stored, and the value it replaces is not
// served in its place.
func TestOversizedReplaceDropsTheOldValue(t *testing.T) {
	c := New("t-oversize-replace", 100)
	c.Add("a", "A1", 10)
	c.Add("a", "A2", 200)
	if v, ok := c.Get("a"); ok {
		t.Fatalf("after an oversized replace the cache still serves %v", v)
	}
	if n, b := resident(c); n != 0 || b != 0 {
		t.Fatalf("%d objects, %d bytes left after an oversized replace", n, b)
	}
}

// zipfTrace draws n keys of 24 from a seeded Zipf(1.0): key i has
// weight 1/(i+1).
func zipfTrace(seed uint64, n int) []string {
	const keys = 24
	var cdf [keys]float64
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	r := rand.New(rand.NewPCG(seed, 0))
	trace := make([]string, n)
	for i := range trace {
		u := r.Float64() * sum
		k := sort.SearchFloat64s(cdf[:], u)
		trace[i] = fmt.Sprintf("k%02d", min(k, keys-1))
	}
	return trace
}

// lruHits is what a plain LRU holding room keys hits on trace.
func lruHits(trace []string, room int) int {
	var recent []string // most recent last
	hits := 0
	for _, k := range trace {
		if i := slices.Index(recent, k); i >= 0 {
			hits++
			recent = slices.Delete(recent, i, i+1)
		} else if len(recent) == room {
			recent = recent[1:]
		}
		recent = append(recent, k)
	}
	return hits
}

// TestAdmissionBeatsLRUOnZipf: 24 equal-cost keys drawn Zipf(1.0)
// through a cache with room for 17 — session_mix's introductions in a
// lab PC's cache. Keeping the most-asked keys hits more often than
// keeping the most recent ones.
func TestAdmissionBeatsLRUOnZipf(t *testing.T) {
	const room, cost = 17, 10
	trace := zipfTrace(7, 100_000)
	c := New("t-zipf", room*cost)
	hits := len(trace)
	for _, k := range trace {
		if _, err := c.GetOrFill(k, func() (any, int64, error) { hits--; return k, cost, nil }); err != nil {
			t.Fatal(err)
		}
	}
	lru := lruHits(trace, room)
	t.Logf("hits: admission %d, LRU %d of %d", hits, lru, len(trace))
	if hits <= lru {
		t.Fatalf("admission hit %d of %d, plain LRU %d", hits, len(trace), lru)
	}
}

// TestScanLeavesTheHotSetResident: one pass over ten times the cache's
// room in keys asked once does not flush keys asked for repeatedly.
func TestScanLeavesTheHotSetResident(t *testing.T) {
	const room, cost = 17, 10
	c := New("t-scan", room*cost)
	fill := func(k string) {
		if _, err := c.GetOrFill(k, func() (any, int64, error) { return k, cost, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			fill(fmt.Sprintf("hot%d", i))
		}
	}
	for i := 0; i < 10*room; i++ {
		fill(fmt.Sprintf("scan%d", i))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < 10; i++ {
		if _, ok := c.items[fmt.Sprintf("hot%d", i)]; !ok {
			t.Errorf("hot%d evicted by a scan of keys asked once", i)
		}
	}
}

// TestMissCountsStayBounded: the counts kept for keys not resident
// stay within one aging period of keys while a million distinct keys
// miss beside a resident hot set.
func TestMissCountsStayBounded(t *testing.T) {
	const room, cost = 17, 10
	c := New("t-seen", room*cost)
	for i := 0; i < room; i++ {
		c.Add("hot"+strconv.Itoa(i), i, cost)
	}
	for i := 0; i < 1_000_000; i++ {
		c.Get("hot" + strconv.Itoa(i%room))
		c.Get(strconv.Itoa(i))
		if i%1000 == 0 || i == 999_999 {
			c.mu.Lock()
			seen, bound := len(c.seen), agingPeriod*(len(c.items)+agingFloor)
			c.mu.Unlock()
			if seen > bound {
				t.Fatalf("after %d keys seen holds %d, bound %d", i+1, seen, bound)
			}
		}
	}
}

// TestRefusedFillReachesEveryWaiter: a fill the cache does not admit —
// the one slot holds a key asked for more often — still hands its value
// to the leader and to every waiter of its flight, fetched once.
func TestRefusedFillReachesEveryWaiter(t *testing.T) {
	const waiters = 32
	c := New("t-refused", 10)
	c.Add("hot", "H", 10)
	for i := 0; i < 2*waiters; i++ {
		c.Get("hot")
	}
	refusedBefore := c.refused.Value()
	var fetches atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrFill("cold", func() (any, int64, error) {
				fetches.Add(1)
				<-gate
				return "payload", 10, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Every goroutine counts its ask before it joins the flight; a late
	// one would find the refused key missing and fetch again.
	for asked := 0; asked < waiters; {
		runtime.Gosched()
		c.mu.Lock()
		asked = int(c.seen["cold"])
		c.mu.Unlock()
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
	if d := c.refused.Value() - refusedBefore; d != 1 {
		t.Fatalf("%d refusals counted, want 1", d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items["hot"]; !ok {
		t.Fatal("the refused fill evicted the key asked for more often")
	}
	if _, ok := c.items["cold"]; ok {
		t.Fatal("the fill was admitted over a key asked for more often")
	}
}

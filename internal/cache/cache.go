// Package cache is the object cache in front of the courseware
// database: a size-bounded LRU with singleflight fill, the second of
// the two mechanisms (after RPC pipelining) that "Media Objects in
// Time" credits for its streaming throughput. A navigator replays the
// same MPEG objects every time a student revisits a scene; serving the
// replay from local memory turns a network round trip into a map
// lookup, and singleflight turns a stampede of misses for one hot
// object into a single upstream fetch that every waiter shares.
// Admission is TinyLFU's rule (Einziger et al., 2017): a new object is
// stored only if no entry it would evict was asked for more often.
//
// The cache is value-agnostic: callers store whatever they fetched
// along with its byte cost, and own the discipline for sharing it.
// transport.DBClient.GetContent hands every hit the same record under
// an immutable-bytes contract (a caller that must mutate copies), and a
// navigator keeps its decoded, read-only course documents in the same
// cache under keys no content ref can reach.
package cache

import (
	"container/list"
	"sync"
	"time"

	"mits/internal/obs"
)

// Cache is a size-bounded LRU keyed by string with singleflight fill and
// frequency-aware admission. Safe for concurrent use; create with New.
type Cache struct {
	maxBytes int64

	mu     sync.Mutex
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	flight map[string]*flightCall
	bytes  int64

	// seen counts the misses of keys not resident, at most one aging
	// period of them; asks counts lookups since counts were halved.
	seen map[string]uint32
	asks int

	// Exposed at /metrics: hit ratio tells an operator whether the cache
	// is sized for the working set, evictions whether it is thrashing,
	// and the fill-latency histogram what a miss actually costs (the
	// upstream fetch time a hit saves).
	hits, misses, evictions, shared, refused *obs.Counter
	bytesGauge, objectsGauge                 *obs.Gauge
	fillLatency                              *obs.Histogram
}

// entry is one resident object.
type entry struct {
	key  string
	val  any
	cost int64
	freq uint32 // asks: its misses when admitted, plus its hits
}

// Every count is halved once per agingPeriod × (resident + agingFloor)
// lookups, so a key asked for often long ago loses to one asked now.
const agingPeriod, agingFloor = 64, 16

// flightCall is one in-progress fill that late arrivals wait on.
type flightCall struct {
	done chan struct{} // closed after val/err are set
	val  any
	err  error
}

// New builds a cache bounded to maxBytes of stored cost; name labels
// its metrics (cache_hits_total{cache=name} and friends). maxBytes <= 0
// yields a cache that stores nothing but still deduplicates concurrent
// fills.
func New(name string, maxBytes int64) *Cache {
	return &Cache{
		maxBytes:     maxBytes,
		ll:           list.New(),
		items:        make(map[string]*list.Element),
		flight:       make(map[string]*flightCall),
		seen:         make(map[string]uint32),
		hits:         obs.GetCounter("cache_hits_total", "cache", name),
		misses:       obs.GetCounter("cache_misses_total", "cache", name),
		evictions:    obs.GetCounter("cache_evictions_total", "cache", name),
		shared:       obs.GetCounter("cache_singleflight_shared_total", "cache", name),
		refused:      obs.GetCounter("cache_admission_refused_total", "cache", name),
		bytesGauge:   obs.GetGauge("cache_bytes", "cache", name),
		objectsGauge: obs.GetGauge("cache_objects", "cache", name),
		fillLatency:  obs.GetHistogram("cache_fill_latency_ns", "cache", name),
	}
}

// Get returns the cached value for key, refreshing its recency.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.lookupLocked(key); e != nil {
		return e.val, true
	}
	c.misses.Inc()
	return nil, false
}

// lookupLocked counts one ask for key: a hit refreshes the entry's
// recency and returns it, a miss counts in seen.
func (c *Cache) lookupLocked(key string) *entry {
	if c.asks++; c.asks >= agingPeriod*(len(c.items)+agingFloor) {
		c.ageLocked()
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		e := el.Value.(*entry)
		e.freq++
		return e
	}
	if n, ok := c.seen[key]; ok || len(c.seen) < agingPeriod*(len(c.items)+agingFloor) {
		c.seen[key] = n + 1
	}
	return nil
}

// ageLocked halves every count, forgetting the keys whose count is 0.
func (c *Cache) ageLocked() {
	c.asks = 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		el.Value.(*entry).freq /= 2
	}
	for k, n := range c.seen {
		if c.seen[k] = n / 2; n < 2 {
			delete(c.seen, k)
		}
	}
}

// GetOrFill returns the cached value for key, or fills it by calling
// fetch exactly once no matter how many goroutines miss concurrently —
// the singleflight guarantee. Waiters share the leader's value (and
// error), also one the cache refuses to admit; successful fills are
// offered at the returned cost. A fill error reaches every waiter of
// that flight but is not cached: the next GetOrFill tries again.
func (c *Cache) GetOrFill(key string, fetch func() (val any, cost int64, err error)) (any, error) {
	c.mu.Lock()
	if e := c.lookupLocked(key); e != nil {
		val := e.val
		c.mu.Unlock()
		return val, nil
	}
	if fc, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-fc.done
		c.shared.Inc()
		return fc.val, fc.err
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flight[key] = fc
	c.misses.Inc()
	c.mu.Unlock()

	start := time.Now()
	val, cost, err := fetch()
	c.fillLatency.Observe(time.Since(start))

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		c.addLocked(key, val, cost)
	}
	c.mu.Unlock()
	fc.val, fc.err = val, err
	close(fc.done)
	return val, err
}

// Add inserts (or replaces) a value at the given byte cost, evicting
// from the cold end until the bound holds, unless a new key would evict
// an entry asked for more often. A value costing more than the whole
// cache is not stored (it would evict everything) and drops the key's.
func (c *Cache) Add(key string, val any, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(key, val, cost)
}

func (c *Cache) addLocked(key string, val any, cost int64) {
	el, resident := c.items[key]
	switch {
	case resident && cost > c.maxBytes:
		c.removeLocked(el)
	case resident:
		old := el.Value.(*entry)
		c.bytes += cost - old.cost
		old.val, old.cost = val, cost
		c.ll.MoveToFront(el)
	case cost > c.maxBytes:
		return
	default:
		freq := c.seen[key]
		for v, need := c.ll.Back(), c.bytes+cost-c.maxBytes; need > 0; v = v.Prev() {
			e := v.Value.(*entry)
			if e.freq > freq {
				c.refused.Inc()
				return
			}
			need -= e.cost
		}
		delete(c.seen, key)
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, cost: cost, freq: freq})
		c.bytes += cost
	}
	for c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
		c.evictions.Inc()
	}
	c.bytesGauge.Set(c.bytes)
	c.objectsGauge.Set(int64(len(c.items)))
}

// Remove drops a key, if present.
func (c *Cache) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
		c.bytesGauge.Set(c.bytes)
		c.objectsGauge.Set(int64(len(c.items)))
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.cost
}

// Len reports resident objects.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

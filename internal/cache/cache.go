// Package cache is the object cache in front of the courseware
// database: a size-bounded LRU with singleflight fill, the second of
// the two mechanisms (after RPC pipelining) that "Media Objects in
// Time" credits for its streaming throughput. A navigator replays the
// same MPEG objects every time a student revisits a scene; serving the
// replay from local memory turns a network round trip into a map
// lookup, and singleflight turns a stampede of misses for one hot
// object into a single upstream fetch that every waiter shares.
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

// Cache is a size-bounded LRU keyed by string with singleflight fill.
// Safe for concurrent use. The zero value is unusable; create with New.
type Cache struct {
	maxBytes int64

	mu     sync.Mutex
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	flight map[string]*flightCall
	bytes  int64

	// Exposed at /metrics: hit ratio tells an operator whether the cache
	// is sized for the working set, evictions whether it is thrashing,
	// and the fill-latency histogram what a miss actually costs (the
	// upstream fetch time a hit saves).
	hits, misses, evictions, shared *obs.Counter
	bytesGauge, objectsGauge        *obs.Gauge
	fillLatency                     *obs.Histogram
}

// entry is one resident object.
type entry struct {
	key  string
	val  any
	cost int64
}

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
		hits:         obs.GetCounter("cache_hits_total", "cache", name),
		misses:       obs.GetCounter("cache_misses_total", "cache", name),
		evictions:    obs.GetCounter("cache_evictions_total", "cache", name),
		shared:       obs.GetCounter("cache_singleflight_shared_total", "cache", name),
		bytesGauge:   obs.GetGauge("cache_bytes", "cache", name),
		objectsGauge: obs.GetGauge("cache_objects", "cache", name),
		fillLatency:  obs.GetHistogram("cache_fill_latency_ns", "cache", name),
	}
}

// Get returns the cached value for key, refreshing its recency.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*entry).val, true
	}
	c.misses.Inc()
	return nil, false
}

// GetOrFill returns the cached value for key, or fills it by calling
// fetch exactly once no matter how many goroutines miss concurrently —
// the singleflight guarantee. Waiters share the leader's value (and
// error); successful fills are cached at the returned cost. A fill
// error is returned to every waiter of that flight but is not cached:
// the next GetOrFill tries again.
func (c *Cache) GetOrFill(key string, fetch func() (val any, cost int64, err error)) (any, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		val := el.Value.(*entry).val
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
// from the cold end until the bound holds. Values costing more than
// the whole cache are not stored — they would only evict everything
// else on their way through.
func (c *Cache) Add(key string, val any, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(key, val, cost)
}

func (c *Cache) addLocked(key string, val any, cost int64) {
	if cost > c.maxBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		old := el.Value.(*entry)
		c.bytes += cost - old.cost
		old.val, old.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, cost: cost})
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

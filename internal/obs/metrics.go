package obs

import "sync/atomic"

// Counter is a monotonically increasing event count. The zero-cost
// path is one atomic add; callers on per-cell or per-event hot loops
// should fetch the counter once and cache the pointer.
type Counter struct {
	name   string
	base   string   // name without labels (Prometheus metric family)
	labels []string // alternating key/value pairs
	v      atomic.Int64
}

// Name reports the full exposition name (labels rendered).
func (c *Counter) Name() string { return c.name }

// Base reports the metric name without labels.
func (c *Counter) Base() string { return c.base }

// Labels reports the alternating key/value label pairs.
func (c *Counter) Labels() []string { return c.labels }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; counters only grow).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level: queue depth, index size, open
// connections. Unlike a counter it moves both ways.
type Gauge struct {
	name   string
	base   string
	labels []string
	v      atomic.Int64
}

// Base reports the metric name without labels.
func (g *Gauge) Base() string { return g.base }

// Labels reports the alternating key/value label pairs.
func (g *Gauge) Labels() []string { return g.labels }

// Set stores the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Package regress pins the firing shape of the cross-package tripwire
// the suite test runs over the real tree: a collector that finalizes
// under its lock while shipping through an exporter, and an exporter
// that flushes under its lock while feeding batches back into the
// collector — the transport-writeLoop / collector-finalize /
// cache-singleflight interaction class from the delivery path,
// reduced to one package. If lockorder ever stops seeing this
// inversion, this suite fails before the real-tree tripwire has
// anything to miss.
package regress

import "sync"

type collector struct {
	mu     sync.Mutex
	traces map[uint64][]string
	exp    *exporter
}

type exporter struct {
	mu    sync.Mutex
	queue []string
	coll  *collector
}

// finalize holds collector.mu and pushes the finished trace through
// the exporter, which takes exporter.mu.
func (c *collector) finalize(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	spans := c.traces[id]
	delete(c.traces, id)
	c.exp.ship(spans) // want "lock-order cycle"
}

func (e *exporter) ship(spans []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queue = append(e.queue, spans...)
}

// flush holds exporter.mu and re-enters the collector, which takes
// collector.mu — the inversion.
func (e *exporter) flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, span := range e.queue {
		e.coll.add(span)
	}
	e.queue = e.queue[:0]
}

func (e *exporter) add(span string) {
	e.queue = append(e.queue, span)
}

func (c *collector) add(span string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.traces[0] = append(c.traces[0], span)
}

// drainSafely is the fixed shape: snapshot under the lock, release,
// then call out — no edge, no cycle.
func (e *exporter) drainSafely() {
	e.mu.Lock()
	pending := append([]string(nil), e.queue...)
	e.queue = e.queue[:0]
	e.mu.Unlock()
	for _, span := range pending {
		e.coll.add(span)
	}
}

// The same inversion with one leg behind an explicitly instantiated
// generic function. The summary extractor once resolved only f(…) and
// x.f(…) callees, so lockRight[int](…) read as a dynamic call, the
// left→right edge was never recorded and the cycle went unseen — the
// shape the transport's generic typed-RPC stubs would have hidden
// everything behind.
type left struct{ mu sync.Mutex }

type right struct{ mu sync.Mutex }

func lockRight[T any](r *right, v T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return v
}

func (l *left) thenRight(r *right) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return lockRight[int](r, 1) // want "lock-order cycle"
}

func (l *left) touch() {
	l.mu.Lock()
	l.mu.Unlock()
}

func (r *right) thenLeft(l *left) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.touch()
}

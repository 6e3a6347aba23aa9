// Package a exercises atomicmix: atomic/plain mixes and atomic/mutex
// mixes.
package a

import (
	"sync"
	"sync/atomic"
)

// ---- atomic/plain mix ----

type stats struct {
	hits   int64 // accessed atomically everywhere: clean
	misses int64 // atomic in record, plain in report: flagged
}

func (s *stats) record(hit bool) {
	if hit {
		atomic.AddInt64(&s.hits, 1)
		return
	}
	atomic.AddInt64(&s.misses, 1)
}

func (s *stats) report() (int64, int64) {
	h := atomic.LoadInt64(&s.hits)
	m := s.misses // want "misses is accessed with sync/atomic .* but plainly here"
	return h, m
}

// newStats initializes plainly inside its own constructor body: the
// value is not shared yet, so this is exempt.
func newStats(seedMisses int64) *stats {
	s := &stats{}
	s.misses = seedMisses
	return s
}

// ---- atomic/mutex mix ----

type mixed struct {
	mu    sync.Mutex
	depth int64
}

func (m *mixed) bump() {
	atomic.AddInt64(&m.depth, 1)
}

func (m *mixed) drain() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.depth // want "depth is accessed with sync/atomic .* mixing a mutex with atomics"
	m.depth = 0
	return d
}

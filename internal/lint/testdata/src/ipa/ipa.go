// Package ipa is the producer side of the interprocedural meta-test
// fixtures: it defines the Sink seam, one local implementation, and a
// Hub that dispatches through the seam while holding its own lock —
// the facts another package's pass must read unchanged.
package ipa

import "sync"

// Sink is the dispatch seam; ipb adds a second implementation.
type Sink interface {
	Put(v int)
}

type Local struct {
	mu   sync.Mutex
	vals []int
}

func (l *Local) Put(v int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.vals = append(l.vals, v)
}

type Hub struct {
	mu    sync.Mutex
	sinks []Sink
}

// Broadcast holds Hub.mu across the Sink.Put dispatch: the module
// graph must resolve the interface call to every implementation and
// draw the Hub.mu → impl.mu ordering edges.
func (h *Hub) Broadcast(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.sinks {
		s.Put(v)
	}
}

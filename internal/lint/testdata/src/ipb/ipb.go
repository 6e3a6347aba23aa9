// Package ipb is the consumer side of the interprocedural meta-test
// fixtures: a second Sink implementation in a different package, and a
// goroutine launch whose body must be summarized as a synthetic #go
// function.
package ipb

import (
	"sync"

	"mits/internal/lint/testdata/src/ipa"
)

type Remote struct {
	mu sync.Mutex
	n  int
}

func (r *Remote) Put(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
}

// Mirror launches the hub feed asynchronously; Broadcast's locks must
// not leak into Mirror's context, only into the #go1 body's.
func Mirror(h *ipa.Hub, vals []int) {
	go func() {
		for _, v := range vals {
			h.Broadcast(v)
		}
	}()
}

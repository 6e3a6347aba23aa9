package transport

import (
	"sync"
	"sync/atomic"
)

// Size-classed frame-buffer recycling. Every RPC used to allocate a
// fresh body buffer on each side of the wire (marshal on write, read
// buffer on receive); at the pipelined rates the multiplexed client
// sustains, that garbage dominated the profile. Buffers are pooled in
// power-of-four classes so a pool hit wastes at most 4× the requested
// size; requests above the largest class fall through to plain
// allocations (rare: a MaxFrame-sized pool would pin tens of MB).
//
// Ownership discipline — the reason recycling is safe:
//   - write buffers (batch scratch and large-frame segments) live only
//     inside the batchWriter; the kernel has copied them when the
//     flush's Write/writev returns;
//   - server request buffers are released after the handler returned
//     AND its response was encoded into the batch (Handler documents
//     that payloads do not outlive the call); a pooled response
//     (PooledCtxHandler) is released at the same point;
//   - client response buffers are pooled too, but recycling is opt-in:
//     the call (CallInTracePooled) hands the caller a release
//     callback, and a caller that drops it simply lets the buffer fall
//     to the GC. putBuf runs only via release, so an un-released
//     buffer can never be handed out twice.

// bufClasses are the pooled capacities. The smallest covers the framed
// control RPCs (list/keyword calls), the middle ones the typical
// courseware documents, the largest a full MPEG content chunk.
var bufClasses = [...]int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

var bufPools [len(bufClasses)]sync.Pool

// bufAudit, when set, counts pooled-class buffers handed out (+1) and
// recycled (-1). Tests that check a path returns exactly what it took
// set it; otherwise it is nil and costs one atomic load.
var bufAudit atomic.Pointer[atomic.Int64]

func audit(delta int64) {
	if a := bufAudit.Load(); a != nil {
		a.Add(delta)
	}
}

// getBuf returns a zero-length buffer with capacity ≥ n, pooled when a
// class fits.
func getBuf(n int) []byte {
	for i, size := range bufClasses {
		if n <= size {
			audit(+1)
			if b, ok := bufPools[i].Get().(*[]byte); ok {
				return (*b)[:0]
			}
			return make([]byte, 0, size)
		}
	}
	return make([]byte, 0, n)
}

// putBuf recycles a buffer obtained from getBuf. Buffers whose
// capacity matches no class (over-large one-offs) are dropped for the
// GC. The *[]byte indirection keeps the slice header off the heap on
// every Put (sync.Pool stores interfaces).
func putBuf(b []byte) {
	c := cap(b)
	for i, size := range bufClasses {
		if c == size {
			audit(-1)
			b = b[:0]
			bufPools[i].Put(&b)
			return
		}
	}
}

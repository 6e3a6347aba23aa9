package cluster

import (
	"errors"
	"sync"
	"time"

	"mits/internal/obs"
	"mits/internal/transport"
)

// replOp is one accepted write waiting to be applied to a read
// replica: the original method and payload, verbatim, plus the accept
// time the lag gauge measures from.
type replOp struct {
	method   string
	payload  []byte
	accepted time.Time
}

// applier converges one read replica: a background goroutine draining
// an ordered queue of accepted writes into the replica through its
// ordinary resilient client — replication is just the existing
// transport replaying the primary's write stream. A down replica does
// not lose writes: the applier parks on the head op and retries with
// backoff until the node heals (the heal-while-streaming scenario of
// E31), so convergence is eventual and ordered, never skipped.
type applier struct {
	rep *Replica

	mu     sync.Mutex
	cond   *sync.Cond
	ops    []replOp
	closed bool

	quit chan struct{} // closed by close(); interrupts retry backoff

	backlog *obs.Gauge   // queue depth, cluster_replication_backlog{replica}
	lag     *obs.Gauge   // age of the op most recently applied, cluster_replication_lag_ns{replica}
	applied *obs.Counter // cluster_replication_applied_total{replica}
	retries *obs.Counter // cluster_replication_retries_total{replica}
}

// Retry backoff bounds for a replica that is refusing applies: fast
// enough that a heal is picked up promptly, slow enough not to hammer
// a partitioned node (whose breaker is rejecting instantly anyway).
const (
	applyBackoffMin = 5 * time.Millisecond
	applyBackoffMax = 250 * time.Millisecond
)

func newApplier(rep *Replica) *applier {
	a := &applier{
		rep:     rep,
		quit:    make(chan struct{}),
		backlog: obs.GetGauge("cluster_replication_backlog", "replica", rep.Name),
		lag:     obs.GetGauge("cluster_replication_lag_ns", "replica", rep.Name),
		applied: obs.GetCounter("cluster_replication_applied_total", "replica", rep.Name),
		retries: obs.GetCounter("cluster_replication_retries_total", "replica", rep.Name),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// enqueue appends one accepted write. Callers (the shard write path)
// hold the shard's replication mutex across every replica's enqueue,
// so all appliers of a shard see the identical op order.
func (a *applier) enqueue(op replOp) {
	a.mu.Lock()
	if !a.closed {
		a.ops = append(a.ops, op)
		a.backlog.Set(int64(len(a.ops)))
		a.cond.Signal()
	}
	a.mu.Unlock()
}

// depth reports the pending-op count (convergence checks).
func (a *applier) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ops)
}

// head blocks until an op is available (returning it) or the applier
// is closed (returning false). The op stays queued until pop — a retry
// loop re-reads the same head, so no accepted write is ever skipped.
func (a *applier) head() (replOp, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.ops) == 0 && !a.closed {
		a.cond.Wait()
	}
	if len(a.ops) == 0 {
		return replOp{}, false
	}
	return a.ops[0], true
}

// pop removes the applied head.
func (a *applier) pop() {
	a.mu.Lock()
	a.ops = a.ops[1:]
	if len(a.ops) == 0 {
		a.ops = nil // let the backing array go; queues are usually empty
	}
	a.backlog.Set(int64(len(a.ops)))
	a.mu.Unlock()
}

// run is the applier goroutine: apply the head op, retrying transport
// failures with backoff until it lands or the applier closes. Remote
// handler errors do not retry — the replica is up and has durably
// rejected the op (a malformed put would fail identically forever).
func (a *applier) run() {
	backoff := applyBackoffMin
	for {
		op, ok := a.head()
		if !ok {
			return
		}
		_, release, err := a.rep.DB.Do(op.method, op.payload)
		if release != nil {
			release() // the replica's acknowledgement carries nothing the applier reads
		}
		if err != nil {
			var remote *transport.RemoteError
			if !errors.As(err, &remote) {
				// Node unreachable: park on this op and retry after a
				// pause, unless the router is shutting down.
				a.retries.Inc()
				if !a.pause(backoff) {
					return
				}
				backoff *= 2
				if backoff > applyBackoffMax {
					backoff = applyBackoffMax
				}
				continue
			}
			obs.GetCounter("cluster_replication_rejected_total", "replica", a.rep.Name).Inc()
		}
		backoff = applyBackoffMin
		a.lag.Set(int64(time.Since(op.accepted)))
		a.applied.Inc()
		a.pop()
	}
}

// pause waits out a retry backoff, returning false if the applier
// closed meanwhile (so run exits instead of sleeping through shutdown).
func (a *applier) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-a.quit:
		return false
	}
}

// close stops the applier goroutine. Pending ops are dropped with the
// in-memory queue and nothing replays them on the next start: a replica
// that had not applied them stays behind the primary for those keys
// until they are written again (ROADMAP 6 owns the resync).
func (a *applier) close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.quit)
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

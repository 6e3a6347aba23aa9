package atm

import (
	"time"

	"mits/internal/obs"
	"mits/internal/sim"
)

// Process-wide cell counters, cached so the per-cell cost is one
// atomic add. Per-link breakdowns stay on the Link fields; the obs
// counters answer "is the fabric dropping anything at all" at a
// glance.
var (
	obsCellsSent      = obs.GetCounter("atm_cells_sent_total")
	obsCellsDropped   = obs.GetCounter("atm_cells_dropped_total")
	obsGCRAViolations = obs.GetCounter("atm_gcra_violations_total")
)

// node is anything a link can deliver cells to (switch or host).
type node interface {
	receive(c Cell, on *Link, now sim.Time)
	Name() string
}

// Link is a simplex transmission line between two nodes. It owns one
// output queue per service category and serves them in strict priority
// order (CBR first), which is how the simulated network gives
// real-time traffic bounded queueing delay.
type Link struct {
	net  *Network
	from node
	to   node

	rateBits float64       // line rate, bits/s
	prop     time.Duration // propagation delay
	serial   time.Duration // per-cell serialization time

	queues [numCategories][]Cell
	queued int
	limit  int // buffer capacity in cells across all queues
	busy   bool
}

// newLink wires a simplex link. limit is the output buffer in cells.
func newLink(net *Network, from, to node, rateBits float64, prop time.Duration, limit int) *Link {
	return &Link{
		net:      net,
		from:     from,
		to:       to,
		rateBits: rateBits,
		prop:     prop,
		serial:   time.Duration(float64(CellBits) / rateBits * float64(time.Second)),
		limit:    limit,
	}
}

// CellRate reports the link's raw capacity in cells per second.
func (l *Link) CellRate() float64 { return l.rateBits / CellBits }

// enqueue accepts a cell for transmission, dropping it when its service
// category's buffer partition is full — per-class buffering is what
// keeps a best-effort flood from starving reserved traffic of buffer
// space. Drops prefer CLP=1 (tagged) cells already queued in the same
// category before rejecting the arrival, mirroring selective discard.
func (l *Link) enqueue(c Cell, cat ServiceCategory, now sim.Time) {
	if l.net.FIFO {
		// Ablation: one shared first-come queue, no class isolation.
		cat = CBR
	}
	if len(l.queues[cat]) >= l.limit {
		// Selective discard: evict a tagged (CLP=1) cell of the same
		// category to make room for an untagged arrival.
		if c.CLP == 0 {
			if i := l.findTagged(cat); i >= 0 {
				victim := l.queues[cat][i]
				l.queues[cat] = append(l.queues[cat][:i], l.queues[cat][i+1:]...)
				l.queued--
				obsCellsDropped.Inc()
				l.net.noteDrop(victim.ConnID)
			}
		}
		if len(l.queues[cat]) >= l.limit {
			obsCellsDropped.Inc()
			l.net.noteDrop(c.ConnID)
			return
		}
	}
	l.queues[cat] = append(l.queues[cat], c)
	l.queued++
	if !l.busy {
		l.busy = true
		l.transmitNext(now)
	}
}

// findTagged returns the index of the last CLP=1 cell in the category's
// queue, or -1.
func (l *Link) findTagged(cat ServiceCategory) int {
	q := l.queues[cat]
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].CLP == 1 {
			return i
		}
	}
	return -1
}

// transmitNext pops the highest-priority queued cell and schedules its
// departure and far-end arrival.
func (l *Link) transmitNext(now sim.Time) {
	var c Cell
	found := false
	for cat := ServiceCategory(0); cat < numCategories; cat++ {
		q := l.queues[cat]
		if len(q) > 0 {
			c = q[0]
			copy(q, q[1:])
			l.queues[cat] = q[:len(q)-1]
			found = true
			break
		}
	}
	if !found {
		l.busy = false
		return
	}
	l.queued--
	done := now.Add(l.serial)
	arrive := done.Add(l.prop)
	l.net.clock.At(arrive, func(t sim.Time) {
		obsCellsSent.Inc()
		l.to.receive(c, l, t)
	})
	l.net.clock.At(done, func(t sim.Time) {
		l.transmitNext(t)
	})
}

package collect

import (
	"sort"
	"strings"
	"sync"
	"time"

	"mits/internal/obs"
	"mits/internal/transport"
)

// The collector's tail-sampling decision and its cadence. A trace
// enters the flight recorder when any span carries an error or a
// deadline miss, or when its root took at least slowTrace — the tails
// worth debugging; every other trace is dropped (counted in
// obs_collector_sampled_out_total). The recorder keeps the newest
// recorderSize traces. The background sweep runs every sweepEvery and
// finalizes a trace once it has sat idle (no new spans) for
// completeAfter.
const (
	slowTrace     = 100 * time.Millisecond
	recorderSize  = 128
	sweepEvery    = time.Second
	completeAfter = time.Second
)

// Trace is one assembled trace tree in the flight recorder.
type Trace struct {
	ID     obs.TraceID
	Spans  []SpanRecord // sorted by StartNS
	Root   *SpanRecord  // span with no parent present; nil if orphaned
	Dur    time.Duration
	Reason string // why retained: "error", "deadline", "slow"

	// Critical holds the trace's critical path, root first: at each
	// level the longest child is descended into, and Self is the time
	// the step owns once its descended child is subtracted — where the
	// latency actually lives.
	Critical []CriticalStep
}

// CriticalStep is one hop on a trace's critical path.
type CriticalStep struct {
	Span *SpanRecord
	Self time.Duration // Span duration minus the descended child's
}

// maxTraceSpans bounds one pending trace's span count: a runaway or
// hostile producer must not grow a trace without limit, and the
// linear dedupe below must stay cheap. Spans past the cap are dropped
// and counted in obs_collector_span_overflow_total.
const maxTraceSpans = 4096

// traceBuf accumulates one trace's spans until it goes idle. A slice,
// not a map: real traces hold a handful of spans, and thousands of
// pending traces live here between sweeps — small maps made this the
// most pointer-dense region of the collector's heap, billing every GC
// mark phase of the host (measurable on small machines).
type traceBuf struct {
	spans    []SpanRecord
	lastSeen time.Time
}

// add appends rec unless its span ID is already present (export may
// retry a batch) or the trace is at maxTraceSpans.
func (tb *traceBuf) add(rec SpanRecord) (added, overflow bool) {
	for i := range tb.spans {
		if tb.spans[i].ID == rec.ID {
			return false, false
		}
	}
	if len(tb.spans) >= maxTraceSpans {
		return false, true
	}
	tb.spans = append(tb.spans, rec)
	return true, false
}

// Collector assembles exported spans into traces. Add is the ingest
// path (wired to the obs.Export method by Register); Sweep finalizes
// idle traces into the flight recorder. All methods are safe for
// concurrent use.
type Collector struct {
	mu       sync.Mutex
	pending  map[uint64]*traceBuf
	ring     []*Trace // flight recorder, oldest first, bounded
	byID     map[obs.TraceID]*Trace
	now      func() time.Time
	sweepers sync.WaitGroup
	quit     chan struct{}
	stopOnce sync.Once

	spansIn  *obs.Counter
	traces   *obs.Counter
	retained *obs.Counter
	dropped  *obs.Counter
	overflow *obs.Counter
}

// NewCollector builds a collector.
func NewCollector() *Collector {
	return &Collector{
		pending:  make(map[uint64]*traceBuf),
		byID:     make(map[obs.TraceID]*Trace),
		now:      time.Now,
		quit:     make(chan struct{}),
		spansIn:  obs.GetCounter("obs_collector_spans_total"),
		traces:   obs.GetCounter("obs_collector_traces_total"),
		retained: obs.GetCounter("obs_collector_retained_total"),
		dropped:  obs.GetCounter("obs_collector_sampled_out_total"),
		overflow: obs.GetCounter("obs_collector_span_overflow_total"),
	}
}

// SetClock injects a time source (tests); returns the collector.
func (c *Collector) SetClock(now func() time.Time) *Collector {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
	return c
}

// Add ingests one batch. Spans are deduped by ID within their trace,
// so a retried obs.Export delivery is absorbed; untraced spans
// (trace 0) are ignored.
func (c *Collector) Add(b Batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, rec := range b.Spans {
		if rec.Trace == 0 {
			continue
		}
		// The exporter stamps the site once per batch, not per span (the
		// span sink is on the RPC hot path); unfold it here.
		if rec.Site == "" {
			rec.Site = b.Site
		}
		tb := c.pending[rec.Trace]
		if tb == nil {
			tb = &traceBuf{}
			c.pending[rec.Trace] = tb
		}
		added, overflow := tb.add(rec)
		if added {
			c.spansIn.Inc()
		} else if overflow {
			c.overflow.Inc()
		}
		tb.lastSeen = now
	}
}

// Register mounts the collector's ingest on a transport mux as the
// obs.Export method.
func (c *Collector) Register(m *transport.Mux) {
	transport.Route(m, transport.MethodObsExport, func(b Batch) (struct{}, error) {
		c.Add(b)
		return struct{}{}, nil
	})
}

// Sweep finalizes every pending trace idle for at least maxIdle
// (maxIdle 0 finalizes all — the deterministic barrier for tests and
// experiments) and returns how many were finalized.
func (c *Collector) Sweep(maxIdle time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	n := 0
	for id, tb := range c.pending {
		if maxIdle > 0 && now.Sub(tb.lastSeen) < maxIdle {
			continue
		}
		delete(c.pending, id)
		c.finalizeLocked(obs.TraceID(id), tb)
		n++
	}
	return n
}

// finalizeLocked assembles a pending trace, applies the retain policy,
// and (when kept) records it. Callers hold c.mu.
func (c *Collector) finalizeLocked(id obs.TraceID, tb *traceBuf) {
	if old := c.byID[id]; old != nil {
		// A straggler batch (a late export retry can outlive
		// completeAfter) re-finalized a trace already in the flight
		// recorder. The original spans left pending at the first
		// finalize, so the straggler set alone may be near-empty —
		// merge the retained tree into it and re-assemble in place, so
		// a retained trace only ever gains spans.
		for i := range old.Spans {
			tb.add(old.Spans[i])
		}
		t := assemble(id, tb)
		t.Reason = old.Reason
		// Late spans may carry the error or the tail the first pass
		// never saw; upgrade the reason if they do.
		if r := retainReason(t); r != "" {
			t.Reason = r
		}
		for i, r := range c.ring {
			if r == old {
				c.ring[i] = t
				break
			}
		}
		c.byID[id] = t
		return
	}
	c.traces.Inc()
	t := assemble(id, tb)
	reason := retainReason(t)
	if reason == "" {
		c.dropped.Inc()
		return
	}
	t.Reason = reason
	c.retained.Inc()
	c.ring = append(c.ring, t)
	c.byID[t.ID] = t
	if len(c.ring) > recorderSize {
		evict := c.ring[0]
		c.ring = c.ring[1:]
		delete(c.byID, evict.ID)
	}
}

// retainReason decides tail sampling; "" means drop.
func retainReason(t *Trace) string {
	for i := range t.Spans {
		if strings.HasPrefix(t.Spans[i].Err, obs.DeadlineMissPrefix) {
			return "deadline"
		}
	}
	for i := range t.Spans {
		if t.Spans[i].Err != "" {
			return "error"
		}
	}
	if t.Root != nil && t.Dur >= slowTrace {
		return "slow"
	}
	return ""
}

// assemble orders a trace's spans, finds its root, and computes the
// critical path.
func assemble(id obs.TraceID, tb *traceBuf) *Trace {
	// The traceBuf leaves pending before finalize, so the trace can own
	// its span slice outright.
	t := &Trace{ID: id, Spans: tb.spans}
	sort.Slice(t.Spans, func(i, j int) bool {
		if t.Spans[i].StartNS != t.Spans[j].StartNS {
			return t.Spans[i].StartNS < t.Spans[j].StartNS
		}
		return t.Spans[i].ID < t.Spans[j].ID
	})
	present := make(map[uint64]*SpanRecord, len(t.Spans))
	for i := range t.Spans {
		present[t.Spans[i].ID] = &t.Spans[i]
	}
	// Root = earliest span whose parent was not exported (normally the
	// client span with Parent 0; under export loss, the oldest survivor).
	for i := range t.Spans {
		if _, ok := present[t.Spans[i].Parent]; !ok {
			t.Root = &t.Spans[i]
			break
		}
	}
	if t.Root != nil {
		t.Dur = time.Duration(t.Root.DurNS)
		t.Critical = criticalPath(t.Root, t.Spans, present)
	}
	return t
}

// criticalPath walks from the root into the longest child at each
// level. Self at each step is the step's duration minus the descended
// child's (clamped at zero — clocks on different sites may disagree);
// the leaf owns its full duration. The Selfs therefore sum to the root
// duration, so the step with the dominant Self is the hop where the
// latency lives.
func criticalPath(root *SpanRecord, spans []SpanRecord, present map[uint64]*SpanRecord) []CriticalStep {
	children := make(map[uint64][]*SpanRecord, len(spans))
	for i := range spans {
		if _, ok := present[spans[i].Parent]; ok {
			children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
		}
	}
	var path []CriticalStep
	seen := make(map[uint64]bool) // cycle guard against corrupt parent links
	for cur := root; cur != nil && !seen[cur.ID]; {
		seen[cur.ID] = true
		var next *SpanRecord
		for _, ch := range children[cur.ID] {
			if next == nil || ch.DurNS > next.DurNS {
				next = ch
			}
		}
		self := time.Duration(cur.DurNS)
		if next != nil {
			self -= time.Duration(next.DurNS)
			if self < 0 {
				self = 0
			}
		}
		path = append(path, CriticalStep{Span: cur, Self: self})
		cur = next
	}
	return path
}

// Retained lists the flight recorder's traces, oldest first.
func (c *Collector) Retained() []*Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Trace(nil), c.ring...)
}

// Get looks one retained trace up by ID.
func (c *Collector) Get(id obs.TraceID) *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byID[id]
}

// PendingCount reports how many traces are still assembling.
func (c *Collector) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Start launches background sweeping every sweepEvery, finalizing
// traces idle for completeAfter. Close stops it.
func (c *Collector) Start() {
	c.sweepers.Add(1)
	go func() {
		defer c.sweepers.Done()
		t := time.NewTicker(sweepEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Sweep(completeAfter)
			case <-c.quit:
				return
			}
		}
	}()
}

// Close stops background sweeping (idempotent; a collector never
// started is fine to close).
func (c *Collector) Close() error {
	c.stopOnce.Do(func() { close(c.quit) })
	c.sweepers.Wait()
	return nil
}

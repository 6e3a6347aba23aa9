// Package collect is the cross-site trace pipeline: an Exporter on
// every node taps its registry's span sink and ships finished spans —
// batched, bounded, never blocking the RPC hot path — over the
// ordinary transport to a Collector, which reassembles per-trace span
// trees, attributes tail latency along the critical path, and keeps a
// flight recorder of the traces worth keeping (errors, deadline
// misses, slow outliers).
package collect

import (
	"sync"
	"time"

	"mits/internal/obs"
	"mits/internal/transport"
)

// SpanRecord is one finished span on the wire (the typed-RPC payload
// codec, transport.Invoke/Route). IDs travel as raw uint64 so the
// record stays flat.
type SpanRecord struct {
	Trace   uint64
	ID      uint64
	Parent  uint64
	Name    string
	Kind    string
	Site    string // exporting node; blank on the wire, unfolded from Batch.Site by the collector
	Err     string
	StartNS int64 // UnixNano
	DurNS   int64
}

// Batch is the obs.Export request payload: one exporter flush.
type Batch struct {
	Site  string
	Spans []SpanRecord
}

// The exporter's queue, batch and cadence. exportQueue bounds spans
// buffered between the hot path and the export goroutine; beyond it
// spans are dropped (counted in obs_export_dropped_total). The export
// goroutine only drains on the exportEvery tick, so the queue must
// cover a full interval of span production: ~32k spans/sec. Each
// obs.Export call ships up to exportBatch spans — big enough to
// amortize the per-call transport cost on a busy node.
const (
	exportQueue = 8192
	exportBatch = 128
	exportEvery = 250 * time.Millisecond
)

// Exporter drains a registry's finished spans to a collector. The
// registry side is one non-blocking channel send per span — End never
// waits on the exporter, the network, or the collector; when the queue
// is full the span is dropped and counted. Loss is therefore a
// first-class outcome: obs_export_dropped_total on the node and the
// collector's per-trace completeness are how much was lost, never
// whether the node slowed down.
type Exporter struct {
	reg    *obs.Registry
	client transport.Client

	queue   chan SpanRecord
	flushc  chan chan struct{}
	quit    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	dropped  *obs.Counter
	exported *obs.Counter
	failed   *obs.Counter
}

// StartExporter taps reg's span sink and begins shipping spans through
// client (typically a RetryClient from Dial, so a collector restart
// heals). The exporter owns the client and closes it on Close.
func StartExporter(reg *obs.Registry, client transport.Client) *Exporter {
	e := &Exporter{
		reg:      reg,
		client:   client,
		queue:    make(chan SpanRecord, exportQueue),
		flushc:   make(chan chan struct{}),
		quit:     make(chan struct{}),
		dropped:  reg.Counter("obs_export_dropped_total"),
		exported: reg.Counter("obs_export_spans_total"),
		failed:   reg.Counter("obs_export_failures_total"),
	}
	reg.SetSpanSink(e.offer)
	e.wg.Add(1)
	go e.run()
	return e
}

// offer is the span sink: runs on the goroutine calling Span.End, so
// it must never block.
func (e *Exporter) offer(s *obs.Span) {
	// The exporter's own obs.Export RPC finishes spans too (client span
	// here, server span on the collector); shipping those would make
	// every flush breed the next batch. Filter by name — both kinds.
	if s.Name == transport.MethodObsExport {
		return
	}
	// Site is left blank here and stamped once per batch at ship time
	// (Batch.Site; the collector unfolds it per span) — offer runs on
	// every Span.End, and resolving the site name costs a registry lock.
	rec := SpanRecord{
		Trace:   uint64(s.Trace),
		ID:      uint64(s.ID),
		Parent:  uint64(s.Parent),
		Name:    s.Name,
		Kind:    s.Kind,
		Err:     s.Err,
		StartNS: s.Start.UnixNano(),
		DurNS:   int64(s.Dur),
	}
	select {
	case e.queue <- rec:
	default:
		e.dropped.Inc()
	}
}

// run is the export goroutine: every exportEvery it drains the
// queue and ships the accumulated spans in exportBatch chunks. It
// deliberately never parks on the queue itself — with no receiver
// waiting, the hot path's enqueue is a plain buffered-channel write
// that wakes nobody, where a parked receiver would turn every
// Span.End into a goroutine wakeup (a measurable scheduler tax at RPC
// rates on small hosts).
func (e *Exporter) run() {
	defer e.wg.Done()
	t := time.NewTicker(exportEvery)
	defer t.Stop()
	var batch []SpanRecord
	for {
		select {
		case <-t.C:
			batch = e.ship(e.drainInto(batch))
		case ack := <-e.flushc:
			batch = e.ship(e.drainInto(batch))
			close(ack)
		case <-e.quit:
			e.ship(e.drainInto(batch))
			return
		}
	}
}

// drainInto empties whatever is sitting in the queue right now.
func (e *Exporter) drainInto(batch []SpanRecord) []SpanRecord {
	for {
		select {
		case rec := <-e.queue:
			batch = append(batch, rec)
		default:
			return batch
		}
	}
}

// ship sends the buffered spans in exportBatch chunks, returning the
// reset buffer. A failed export drops that chunk (counted): spans are
// telemetry, not payload, and buffering them against a dead collector
// would turn the exporter into the memory leak it exists to avoid.
func (e *Exporter) ship(batch []SpanRecord) []SpanRecord {
	site := e.reg.Site() // SetSite may run after the exporter starts
	for off := 0; off < len(batch); off += exportBatch {
		chunk := batch[off:min(off+exportBatch, len(batch))]
		err := transport.Invoke(e.client, obs.SpanContext{}, transport.MethodObsExport, Batch{Site: site, Spans: chunk}, nil)
		if err != nil {
			e.failed.Inc()
			e.dropped.Add(int64(len(chunk)))
		} else {
			e.exported.Add(int64(len(chunk)))
		}
	}
	// A burst (a flush after a stall, a busy spike) can leave the batch
	// buffer holding thousands of pointer-bearing records; do not carry
	// that as permanent live heap for the GC to re-mark every cycle —
	// steady state regrows a right-sized buffer in one tick.
	if cap(batch) > 4*exportBatch {
		return nil
	}
	return batch[:0]
}

// Flush synchronously drains the queue and ships everything buffered —
// the deterministic barrier tests and experiments use instead of
// waiting out exportEvery.
func (e *Exporter) Flush() {
	ack := make(chan struct{})
	select {
	case e.flushc <- ack:
		<-ack
	case <-e.quit:
	}
}

// Close detaches the sink, ships what is buffered, and releases the
// client. Idempotent.
func (e *Exporter) Close() error {
	e.stopped.Do(func() {
		e.reg.SetSpanSink(nil)
		close(e.quit)
	})
	e.wg.Wait()
	return e.client.Close()
}

// Dial builds the standard exporter client for a collector address: a
// redialing RetryClient over TCP with a short per-call timeout, so a
// slow collector sheds batches instead of backing the exporter up.
func Dial(addr string) transport.Client {
	return transport.NewRetryClient(func() (transport.Client, error) {
		c, err := transport.DialTCP(addr)
		if err != nil {
			return nil, err
		}
		c.Timeout = 2 * time.Second
		return c, nil
	}, transport.RetryPolicy{Attempts: 2}, 1)
}

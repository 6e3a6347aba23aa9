package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"mits/internal/obs"
	"mits/internal/transport"
)

// The traced pass records spans from the outside in: every seam between
// layers that the public API exposes gets a timing wrapper from this
// file, and nothing inside the program is touched. One trace ID is
// minted per navigator-level op and handed down CallInTrace; it rides
// the existing frame header, so the server-side wrappers see it in
// HandleCtx's SpanContext and the spans of one op can be put back
// together afterwards.
//
//	navigator.<op>  root, recorded by the actor around the navigator call
//	client.call     traceClient around the pool handed to the navigator
//	server.handle   traceHandler around the mux (or cluster router)
//	replica.call    traceClient around each cluster.ReplicaConfig.Dial
//	store.handle    traceHandler around each store node's mux

type spanKind uint8

const (
	spanRoot spanKind = iota
	spanClient
	spanServer
	spanReplica
	spanStore
)

var spanKindNames = [...]string{"navigator", "client.call", "server.handle", "replica.call", "store.handle"}

// span is one timed crossing of a seam. Name is the op for a root and
// the RPC method otherwise; Attr is the content ref of a root and the
// node name of a replica/store span.
type span struct {
	Trace      uint64
	Kind       spanKind
	Failed     bool
	Start, End int64 // ns since the tracer's epoch
	Req, Resp  int32 // payload bytes, client-side spans only
	Name       string
	Attr       string
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer collects the spans of a traced window in memory; they are
// analysed (and with -out kept for spans.jsonl) when the window ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// drain hands back everything recorded so far and starts afresh with
// room for as much again, so that a window like the last one records
// without growing the slice in the middle of a measurement.
func (t *tracer) drain() []span {
	t.mu.Lock()
	out := t.spans
	t.spans = make([]span, 0, len(out)+len(out)/4+1<<10)
	t.mu.Unlock()
	return out
}

// traceClient times calls through a transport.Client. It implements
// Client, TraceCaller and PooledTraceCaller so that wrapping a pool
// keeps DBClient on the pooled zero-copy decode path.
//
// As the navigator-facing wrapper (kind spanClient) it belongs to one
// actor: the actor stores the trace ID of the op in flight in trace
// before calling the navigator, and every call the navigator makes is
// stamped with it. As a replica-side wrapper (kind spanReplica) it is
// shared, and takes the trace from the SpanContext the router passes
// through; replication applies arrive with none and record trace 0.
type traceClient struct {
	next transport.Client
	tr   *tracer
	kind spanKind
	attr string
	// spanClient only, owned by the actor's goroutine: the trace ID of
	// the op in flight, and how many calls the wrapper has seen.
	trace uint64
	calls int
}

func (c *traceClient) context(sc obs.SpanContext) (obs.SpanContext, uint64) {
	if c.kind == spanClient {
		sc = obs.SpanContext{Trace: obs.TraceID(c.trace)}
	}
	return sc, uint64(sc.Trace)
}

func (c *traceClient) done(trace uint64, method string, start time.Time, req, resp int, err error) {
	if c.kind == spanClient {
		c.calls++
	}
	c.tr.record(span{
		Trace: trace, Kind: c.kind, Failed: err != nil, Name: method, Attr: c.attr,
		Start: c.tr.since(start), End: c.tr.since(time.Now()),
		Req: int32(req), Resp: int32(resp),
	})
}

// Call implements transport.Client.
func (c *traceClient) Call(method string, payload []byte) ([]byte, error) {
	return c.CallInTrace(obs.SpanContext{}, method, payload)
}

// CallInTrace implements transport.TraceCaller.
func (c *traceClient) CallInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	sc, trace := c.context(sc)
	start := time.Now()
	out, err := transport.CallInTrace(c.next, sc, method, payload)
	c.done(trace, method, start, len(payload), len(out), err)
	return out, err
}

// CallInTracePooled implements transport.PooledTraceCaller.
func (c *traceClient) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	sc, trace := c.context(sc)
	start := time.Now()
	out, release, err := transport.CallInTracePooled(c.next, sc, method, payload)
	c.done(trace, method, start, len(payload), len(out), err)
	return out, release, err
}

// Close implements transport.Client.
func (c *traceClient) Close() error { return c.next.Close() }

// dialer wraps a replica's dialer so every client it yields is timed;
// like handler, a nil tracer hands back what it was given.
func (t *tracer) dialer(node string, dial transport.Dialer) transport.Dialer {
	if t == nil {
		return dial
	}
	return func() (transport.Client, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &traceClient{next: c, tr: t, kind: spanReplica, attr: node}, nil
	}
}

// traceHandler times a server's handler. It implements Handler and
// CtxHandler, so NewTCPServer keeps threading the frame's trace context
// through — which is how the span learns its trace.
type traceHandler struct {
	next transport.CtxHandler
	tr   *tracer
	kind spanKind
	attr string
}

// Handle implements transport.Handler.
func (h *traceHandler) Handle(method string, payload []byte) ([]byte, error) {
	return h.HandleCtx(obs.SpanContext{}, method, payload)
}

// HandleCtx implements transport.CtxHandler.
func (h *traceHandler) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	start := time.Now()
	out, err := h.next.HandleCtx(sc, method, payload)
	h.tr.record(span{
		Trace: uint64(sc.Trace), Kind: h.kind, Failed: err != nil, Name: method, Attr: h.attr,
		Start: h.tr.since(start), End: h.tr.since(time.Now()),
	})
	return out, err
}

// serverHandler is what the benchmark's servers are built over: both
// the system's mux and the cluster router are Handler and CtxHandler.
type serverHandler interface {
	transport.Handler
	transport.CtxHandler
}

// handler wraps h for the traced pass; a nil tracer returns h itself,
// so the untraced pass runs with no wrapper at all.
func (t *tracer) handler(kind spanKind, node string, h serverHandler) transport.Handler {
	if t == nil {
		return h
	}
	return &traceHandler{next: h, tr: t, kind: kind, attr: node}
}

// Package transport implements the client–server communication model of
// Fig 3.5: navigator clients issue requests ("a database server waits
// and listens for a service request from a client"), the server
// dispatches them to the courseware database and streams results back.
//
// The same framed request/response protocol runs over two carriers: a
// real TCP connection (the deployment path, used by cmd/mitsd and
// cmd/navigator) and a pair of simulated ATM virtual connections (the
// experiment path, where delivery timing matters and everything runs on
// virtual time).
package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"mits/internal/obs"
)

// MaxFrame bounds a single message; large content is chunked by the
// database API layer.
const MaxFrame = 16 << 20

// frameKind distinguishes requests from responses on a duplex carrier.
// There is one header layout (see appendTo); the two kind bytes are 5
// and 6 because that is what the layout has always put on the wire —
// 1–4 belonged to two earlier layouts that no deployed peer ever spoke
// and now decode as ErrBadFrame like any other unknown byte.
type frameKind byte

const (
	kindRequest  frameKind = 5
	kindResponse frameKind = 6
)

// frame is the wire unit: id pairs responses to requests, method names
// the operation (requests) and errText carries failure (responses).
// trace/span carry the obs trace context (zero = untraced); corr is
// the request-correlation ID the multiplexed client keys its pending
// calls on and the server echoes, so responses may complete out of
// order (zero on the ATM carrier, which pairs by id alone).
type frame struct {
	kind    frameKind
	id      uint64
	corr    uint64
	trace   uint64
	span    uint64
	method  string // requests
	errText string // responses
	payload []byte

	// buf, when non-nil, is the pooled backing buffer this frame was
	// decoded from; releaseFrame returns it for reuse. The server's
	// request path recycles it after the response is encoded; the
	// client's response path recycles it only through the call's
	// release callback (dropped, the buffer falls to the GC).
	buf []byte
}

// frameHeader is the fixed part of a frame body: kind, id, correlation
// ID, trace ID, span ID.
const frameHeader = 1 + 8 + 8 + 8 + 8

// name is the header's string field: the method of a request, the
// error text of a response.
func (f *frame) name() string {
	if f.kind == kindResponse {
		return f.errText
	}
	return f.method
}

// wireSize reports the marshalled body length, so writers can size a
// pooled buffer before encoding.
func (f *frame) wireSize() int {
	return frameHeader + 4 + len(f.name()) + 4 + len(f.payload)
}

// appendTo encodes the frame body (without the outer length prefix TCP
// adds) onto buf, returning the extended slice:
//
//	u8 kind | u64 id | u64 corr | u64 trace | u64 span |
//	u32 len(name) name | u32 len(payload) payload
func (f *frame) appendTo(buf []byte) []byte {
	name := f.name()
	buf = append(buf, byte(f.kind))
	buf = binary.BigEndian.AppendUint64(buf, f.id)
	buf = binary.BigEndian.AppendUint64(buf, f.corr)
	buf = binary.BigEndian.AppendUint64(buf, f.trace)
	buf = binary.BigEndian.AppendUint64(buf, f.span)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.payload)))
	buf = append(buf, f.payload...)
	return buf
}

// marshal encodes the frame body into a fresh allocation (the ATM
// carrier and tests; the TCP path encodes into pooled buffers via
// wireSize/appendTo).
func (f *frame) marshal() []byte {
	return f.appendTo(make([]byte, 0, f.wireSize()))
}

// ErrBadFrame marks a wire frame that failed to decode — a corrupted
// or desynchronized peer. It is typed so clients can distinguish
// malformed traffic from timeouts and hangups.
var ErrBadFrame = errors.New("transport: malformed frame")

func unmarshalFrame(data []byte) (*frame, error) {
	if len(data) < frameHeader+4 {
		return nil, ErrBadFrame
	}
	f := &frame{
		kind:  frameKind(data[0]),
		id:    binary.BigEndian.Uint64(data[1:]),
		corr:  binary.BigEndian.Uint64(data[9:]),
		trace: binary.BigEndian.Uint64(data[17:]),
		span:  binary.BigEndian.Uint64(data[25:]),
	}
	if f.kind != kindRequest && f.kind != kindResponse {
		return nil, fmt.Errorf("%w: kind %d", ErrBadFrame, f.kind)
	}
	off := frameHeader
	nameLen := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if nameLen < 0 || off+nameLen+4 > len(data) {
		return nil, ErrBadFrame
	}
	name := string(data[off : off+nameLen])
	off += nameLen
	payLen := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if payLen < 0 || off+payLen != len(data) {
		return nil, ErrBadFrame
	}
	if f.kind == kindRequest {
		f.method = name
	} else {
		f.errText = name
	}
	if payLen > 0 {
		f.payload = data[off : off+payLen]
	}
	return f, nil
}

// Handler processes one request and returns the response payload. The
// request payload is only valid until Handle returns (the TCP server
// recycles its backing buffer afterwards); a handler that needs the
// bytes later must copy them. Returning the payload itself (or a slice
// of it) as the response is fine — the buffer is released only after
// the response is written. It stays because bench/ names it.
type Handler interface {
	Handle(method string, payload []byte) ([]byte, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(method string, payload []byte) ([]byte, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(method string, payload []byte) ([]byte, error) {
	return f(method, payload)
}

// CtxHandler is the trace-aware handler contract: HandleCtx receives
// the span context of the server span opened for the request (zero
// when the request is untraced), so nested work — an internal span, a
// further RPC to another site — lands in the same trace. The loopback
// carrier probes for it, for the servers too, and falls back to Handler
// when absent, so trace-blind handlers keep working unchanged. It stays
// because bench/ names it.
type CtxHandler interface {
	HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error)
}

// CtxHandlerFunc adapts a function to CtxHandler.
type CtxHandlerFunc func(sc obs.SpanContext, method string, payload []byte) ([]byte, error)

// HandleCtx implements CtxHandler.
func (f CtxHandlerFunc) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	return f(sc, method, payload)
}

// PooledCtxHandler is the server-side mirror of PooledTraceCaller: the
// response payload may be a pooled buffer that release (when non-nil)
// recycles. The TCP and ATM servers call release exactly once, after
// the response bytes are copied onto the wire batch or the response is
// discarded; dropping release is safe (the buffer falls to the GC),
// and a pooled handler's own HandleCtx hands out a copy instead.
type PooledCtxHandler interface {
	HandleCtxPooled(sc obs.SpanContext, method string, payload []byte) (resp []byte, release func(), err error)
}

// pooledHandlerFunc is a mux route: CtxHandlerFunc plus the release.
type pooledHandlerFunc func(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error)

// ErrUnknownMethod is returned by Mux for unregistered methods.
var ErrUnknownMethod = errors.New("transport: unknown method")

// Mux dispatches requests by method name. The zero value is unusable;
// create with NewMux. Registration happens at server start-up; serving
// is concurrent-safe because the map is read-only afterwards. Routes
// are mounted with Route (typed) or RegisterPooled (raw payloads).
type Mux struct {
	routes map[string]pooledHandlerFunc
}

// NewMux returns an empty mux.
func NewMux() *Mux { return &Mux{routes: make(map[string]pooledHandlerFunc)} }

// RegisterPooled adds a handler whose responses may be pooled buffers;
// re-registering a method panics (it is always a wiring bug).
func (m *Mux) RegisterPooled(method string, h func(sc obs.SpanContext, method string, payload []byte) (resp []byte, release func(), err error)) {
	if _, dup := m.routes[method]; dup {
		panic("transport: duplicate method " + method)
	}
	m.routes[method] = h
}

// Methods returns the mounted method names, sorted.
func (m *Mux) Methods() []string {
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Handle implements Handler. It stays because bench/ names it.
func (m *Mux) Handle(method string, payload []byte) ([]byte, error) {
	return m.HandleCtx(obs.SpanContext{}, method, payload)
}

// HandleCtx implements CtxHandler.
func (m *Mux) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	return unpooled(m.HandleCtxPooled(sc, method, payload))
}

// unpooled ends a pooled answer for a caller that cannot release it: the
// caller gets a copy the size of the answer, the pool its buffer back.
func unpooled(out []byte, release func(), err error) ([]byte, error) {
	if release != nil {
		out = bytes.Clone(out)
		release()
	}
	return out, err
}

// HandleCtxPooled implements PooledCtxHandler.
func (m *Mux) HandleCtxPooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	h, ok := m.routes[method]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownMethod, method)
	}
	return h(sc, method, payload)
}

// PooledTraceCaller is the one call of every carrier: issue a request
// continuing the trace in sc (zero = a fresh trace, or none where the
// carrier keeps none) and wait for its response. The returned payload
// may be backed by a pooled buffer that release (when non-nil)
// recycles. The contract is strict — after release the payload and
// anything aliasing it are invalid, and release must be called at most
// once — but opting out is always safe: drop release and the buffer
// falls to the GC like any other allocation.
type PooledTraceCaller interface {
	CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error)
}

// Client is a synchronous request issuer: TCPClient, ClientPool,
// RetryClient, BreakerClient and Loopback.
type Client interface {
	PooledTraceCaller
	Close() error
}

// TraceCaller is the release-blind call. No carrier implements it;
// it stays because bench/ names it.
type TraceCaller interface {
	CallInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error)
}

// CallInTrace issues a call and hands back a copy of the response the
// caller owns, the pooled buffer released. It stays because bench/
// names it.
func CallInTrace(c Client, sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	return unpooled(c.CallInTracePooled(sc, method, payload))
}

// CallInTracePooled is c's own call. It stays because bench/ names it.
func CallInTracePooled(c Client, sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	return c.CallInTracePooled(sc, method, payload)
}

// Loopback adapts a Handler into an in-process Client, used by unit
// tests and by co-located sites (the author site editing against a
// local database), and the TCP and ATM servers dispatch through it.
type Loopback struct{ H Handler }

// CallInTracePooled implements Client: the context reaches a
// trace-aware handler directly — no wire hop, no client/server span
// pair, matching the carrier's in-process nature — and a pooled
// handler's response and its release pass straight through.
func (l Loopback) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	switch h := l.H.(type) {
	case PooledCtxHandler:
		return h.HandleCtxPooled(sc, method, payload)
	case CtxHandler:
		out, err := h.HandleCtx(sc, method, payload)
		return out, nil, err
	}
	out, err := l.H.Handle(method, payload)
	return out, nil, err
}

// Close implements Client.
func (l Loopback) Close() error { return nil }

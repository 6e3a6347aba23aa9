package transport

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
	"sync/atomic"

	"mits/internal/obs"
)

// The typed-RPC stub layer: the one client module and the one server
// dispatch routine of §5.3.2. Every typed service call in the system —
// db.*, school.*, ex.*, fac.* — is an Invoke on the client side and a
// Route on the server side, so the payload format (one gob value per
// direction, no bytes at all for "no argument" / "no result") and the
// call sequence (encode → CallInTracePooled → decode → release) are
// written down here and nowhere else. Service packages own only their
// method names and wire structs.
//
// The payload is, as it always was, what a fresh gob.Encoder writes for
// the value: its type definitions, then one value message. What changed
// is how often gob's type machinery runs: a fresh encoder re-describes
// its types and a fresh decoder re-compiles its engine per message (a
// quarter of a routed read's CPU, E34), so gobEncode and gobDecode keep
// primed ones per Go type. No peer can tell (TestGobCodecDifferential).

// splitGob splits a payload as gob frames it — messages of an unsigned
// byte count and a body opening with a signed type id, negative for a
// type definition — into the leading definitions and the first value
// message; like a decoder reading one value, it ignores what follows.
func splitGob(payload []byte) (defs, value []byte, ok bool) {
	for off := 0; off < len(payload); {
		count, n := gobUint(payload[off:])
		body := off + n
		if n == 0 || count == 0 || count > uint64(len(payload)-body) {
			return nil, nil, false
		}
		end := body + int(count)
		id, n := gobUint(payload[body:end])
		if n == 0 {
			return nil, nil, false
		}
		if id&1 == 0 { // a signed integer keeps its sign in the low bit
			return payload[:off], payload[off:end], true
		}
		off = end
	}
	return nil, nil, false
}

// gobUint reads gob's unsigned integer at the head of b: one byte below
// 128, or the negated count of the big-endian bytes that follow. n is
// how many bytes it took, 0 when b does not hold one.
func gobUint(b []byte) (v uint64, n int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n = 1 - int(int8(b[0]))
	if n > 9 || n > len(b) {
		return 0, 0
	}
	for _, c := range b[1:n] {
		v = v<<8 | uint64(c)
	}
	return v, n
}

const (
	// maxPooledCodecBytes bounds what a pooled codec pins (an encoder
	// keeps its buffers, a decoder its last message): a larger message
	// costs its encoder its place, and is decoded by a fresh decoder.
	maxPooledCodecBytes = 256 << 10

	// maxLearnedPrefixes bounds the prefixes decoders are kept for, per
	// target type, and maxPrefixBytes each of them (a wire type's is a
	// few hundred bytes; gob lets a peer pad one with unused definitions).
	// Peers built from this tree send a handful, one per order a process
	// met its types in; one that keeps inventing them is decoded as ever.
	maxLearnedPrefixes = 4
	maxPrefixBytes     = 4 << 10
)

// codecFallback counts a message that went round the primed codecs: dir
// encode|decode, reason unsplittable|prefix_bound|multi_message|oversize.
func codecFallback(dir, reason string) {
	obs.GetCounter("transport_codec_fallback_total", "dir", dir, "reason", reason).Inc()
}

// wireCodec holds the primed codecs of one Go type; wireCodecs maps
// each reflect.Type met so far — the wire types, a fixed set — to its own.
type wireCodec struct {
	encoders sync.Pool                                       // *primedEncoder
	decoders [maxLearnedPrefixes]atomic.Pointer[decoderPool] // filled in order, never evicted
}

var wireCodecs sync.Map

func codecFor(t reflect.Type) *wireCodec {
	if c, ok := wireCodecs.Load(t); ok {
		return c.(*wireCodec)
	}
	c, _ := wireCodecs.LoadOrStore(t, new(wireCodec))
	return c.(*wireCodec)
}

// primedEncoder is an encoder that has sent its type definitions: they
// stay at the head of out, each further Encode writes a value message
// alone behind them, and out is the payload.
type primedEncoder struct {
	enc  *gob.Encoder
	out  bytes.Buffer // the definitions, then what enc wrote during the call in progress
	defs int          // how much of out they are
}

// gobEncodeTo gob-encodes v, into a getBuf buffer when pooled. A type's
// first encode is a fresh encoder's; the definitions it opens with are
// kept in front of the lone value message of each later one — a fresh
// encoder's bytes, every time. An encoder that writes anything else
// loses its place: an interface value met a concrete type it had not
// sent, gob defined the type mid-stream (cutting the message in two),
// and its later messages would lean on it.
func gobEncodeTo(v any, pooled bool) ([]byte, error) {
	pool := &codecFor(reflect.TypeOf(v)).encoders
	for e, primed := pool.Get().(*primedEncoder); ; e, primed = nil, false {
		if !primed {
			e = new(primedEncoder)
			e.enc = gob.NewEncoder(&e.out)
		}
		e.out.Truncate(e.defs)
		if err := e.enc.Encode(v); err != nil {
			return nil, err // and e is dropped: what it has sent is unknown
		}
		payload := e.out.Bytes()
		defs, value, ok := splitGob(payload[e.defs:])
		single := ok && e.defs+len(defs)+len(value) == len(payload) && (!primed || len(defs) == 0)
		if primed && !single {
			continue // the message leans on what e sent before: drop e, encode afresh
		}
		keep := single && len(value) <= maxPooledCodecBytes
		if pooled {
			payload = append(getBuf(len(payload)), payload...)
		} else if keep {
			payload = bytes.Clone(payload) // else e goes no further: its buffer is the payload
		}
		switch {
		case keep:
			e.defs += len(defs)
			pool.Put(e)
		case single:
			codecFallback("encode", "oversize")
		default:
			codecFallback("encode", "multi_message")
		}
		return payload, nil
	}
}

func gobEncode(v any) ([]byte, error) { return gobEncodeTo(v, false) }

// gobEncodePooled is gobEncode into a pooled buffer; release recycles it.
func gobEncodePooled(v any) (out []byte, release func(), err error) {
	if out, err = gobEncodeTo(v, true); err != nil {
		return nil, nil, err
	}
	return out, func() { putBuf(out) }, nil
}

// decoderPool holds the decoders that have consumed one prefix. Its type
// ids follow the order the sending process first met its types in, so it
// is learned from what arrives and matched by its bytes, never predicted.
type decoderPool struct {
	prefix []byte
	pool   sync.Pool // *primedDecoder
}

// decodersFor returns the pool primed with defs, nil when there is none:
// learn then gives defs the next free slot, full says none is left.
func (c *wireCodec) decodersFor(defs []byte, learn bool) (dp *decoderPool, full bool) {
	for i := range c.decoders {
		dp = c.decoders[i].Load()
		if dp == nil && learn {
			c.decoders[i].CompareAndSwap(nil, &decoderPool{prefix: bytes.Clone(defs)})
			dp = c.decoders[i].Load()
		}
		if dp == nil || bytes.Equal(dp.prefix, defs) {
			return dp, false
		}
	}
	return nil, true
}

// primedDecoder is a decoder and the reader it was built over, re-pointed
// at each message: an io.ByteReader, or gob would read ahead through bufio.
type primedDecoder struct {
	dec *gob.Decoder
	src bytes.Reader
}

func (d *primedDecoder) decode(data []byte, v any) error {
	if d.dec == nil {
		d.dec = gob.NewDecoder(&d.src)
	}
	d.src.Reset(data)
	err := d.dec.Decode(v)
	d.src.Reset(nil)
	return err
}

// gobDecode decodes the first gob value in data into v, a pointer. A
// decoder that has consumed data's type definitions — the same bytes,
// for the same target type — gets the value message alone and runs the
// engine it compiled the first time. All else goes to a fresh decoder
// over the whole payload, as every message used to: what the switch
// counts (the guard for outside input; a kept decoder has read only its
// prefix and lone value messages), a prefix's first sight (that decoder
// is then kept), and any message a primed decoder refused — so a caller
// sees only a fresh decoder's errors, and a failed decoder is never reused.
func gobDecode(data []byte, v any) error {
	c := codecFor(reflect.TypeOf(v))
	defs, value, ok := splitGob(data)
	dp, full := c.decodersFor(defs, false)
	reason := ""
	switch {
	case !ok:
		reason = "unsplittable"
	case len(defs)+len(value) != len(data):
		reason = "multi_message"
	case len(value) > maxPooledCodecBytes || len(defs) > maxPrefixBytes:
		reason = "oversize"
	case full:
		reason = "prefix_bound"
	}
	if reason != "" {
		codecFallback("decode", reason)
		return new(primedDecoder).decode(data, v)
	}
	if dp != nil {
		if d, _ := dp.pool.Get().(*primedDecoder); d != nil && d.decode(value, v) == nil {
			dp.pool.Put(d)
			return nil
		}
	}
	d := new(primedDecoder)
	if err := d.decode(data, v); err != nil {
		return err
	}
	if dp == nil {
		dp, _ = c.decodersFor(defs, true)
	}
	if dp != nil {
		dp.pool.Put(d)
	}
	return nil
}

// Invoke issues one typed call: req is gob-encoded (nil sends no
// payload), the call goes out through the carrier's pooled path under
// the caller's span context (zero = untraced or fresh trace, as the
// carrier decides), and the response is gob-decoded into resp, a
// pointer (nil discards it). Invoke owns the response buffer: gob
// copies every byte it keeps, so the buffer is released exactly once
// before returning — after a successful decode and after a failed one
// alike — and nothing the caller receives aliases it. The request is
// not pooled: a timed-out call can leave its frame queued for the writer.
func Invoke(c Client, sc obs.SpanContext, method string, req, resp any) error {
	var payload []byte
	if req != nil {
		var err error
		if payload, err = gobEncode(req); err != nil {
			return err
		}
	}
	out, release, err := CallInTracePooled(c, sc, method, payload)
	if err != nil {
		return err
	}
	if resp != nil {
		err = gobDecode(out, resp)
	}
	if release != nil {
		release()
	}
	return err
}

// Route mounts fn on the mux as method's handler: the request payload
// is gob-decoded into a Req, fn's Resp is gob-encoded as the response.
// A Req of struct{} means the method takes no argument (the payload is
// ignored), a Resp of struct{} that it returns none (a nil payload) —
// the conventions Invoke's nil req and nil resp speak from the other
// side. Call it with inferred type arguments.
func Route[Req, Resp any](m *Mux, method string, fn func(Req) (Resp, error)) {
	RouteCtx(m, method, func(_ obs.SpanContext, req Req) (Resp, error) { return fn(req) })
}

// RouteCtx is Route for handlers that continue the request's trace. The
// response's pooled buffer is the serving connection's to release.
func RouteCtx[Req, Resp any](m *Mux, method string, fn func(obs.SpanContext, Req) (Resp, error)) {
	_, noReq := any(*new(Req)).(struct{})
	_, noResp := any(*new(Resp)).(struct{})
	m.RegisterPooled(method, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, func(), error) {
		var req Req
		if !noReq {
			if err := gobDecode(payload, &req); err != nil {
				return nil, nil, err
			}
		}
		resp, err := fn(sc, req)
		if err != nil || noResp {
			return nil, nil, err
		}
		return gobEncodePooled(resp)
	})
}

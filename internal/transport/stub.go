package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"

	"mits/internal/obs"
)

// The typed-RPC stub layer: the one client module and the one server
// dispatch routine of §5.3.2. Every typed service call — db.*, school.*,
// ex.*, fac.* — is an Invoke on the client side and a Route on the
// server side, so the payload format and the call sequence (encode →
// CallInTracePooled → decode → release) are written down here and
// nowhere else; service packages own only method names and wire structs.
//
// A payload is one value (no bytes at all for "no argument" / "no
// result") in a layout read and written by reflection, with nothing
// kept between messages but each struct type's exported field indexes.
// A struct is its exported fields in order; a bool a byte, 0 or 1; an
// integer a varint, zig-zag if signed; a float 8 bytes, little-endian;
// a string, []byte or slice a uvarint count and then its elements; a
// pointer a presence byte (0 or 1) and what it points at, a map one and
// a count of entries, key first, in key order. An empty slice decodes as
// nil and a message that is a pointer is what it points at, as under
// gob. The decoder holds every count to the bytes left, nesting to
// maxNesting, and refuses bytes after the value.

// maxNesting bounds how deep a message nests: 3 a keyword tree level.
const maxNesting = 512

var errMalformed = errors.New("transport: malformed payload")
var errNesting = fmt.Errorf("transport: payload nests deeper than %d", maxNesting)

var fieldIndexes sync.Map // reflect.Type → []int

// exportedFields lists the exported fields of a struct type, of others none.
func exportedFields(t reflect.Type) []int {
	if f, ok := fieldIndexes.Load(t); ok || t.Kind() != reflect.Struct {
		f, _ := f.([]int)
		return f
	}
	var f []int
	for i := range t.NumField() {
		if t.Field(i).IsExported() {
			f = append(f, i)
		}
	}
	fieldIndexes.Store(t, f)
	return f
}

func noLayout(t reflect.Type) error { return fmt.Errorf("transport: %s has no payload layout", t) }

// checkLayout panics on a type that holds a kind with no layout:
// interface, chan, func, array, complex, uintptr, unsafe pointer, a map
// not keyed by a string, a struct with no exported field.
func checkLayout(t reflect.Type, seen map[reflect.Type]bool) {
	switch k := t.Kind(); {
	case seen[t], k == reflect.Bool, k == reflect.String, k >= reflect.Int && k <= reflect.Uint64, k == reflect.Float32, k == reflect.Float64:
	case k == reflect.Pointer || k == reflect.Slice || k == reflect.Map && t.Key().Kind() == reflect.String:
		seen[t] = true
		checkLayout(t.Elem(), seen)
	case len(exportedFields(t)) > 0:
		seen[t] = true
		for _, i := range exportedFields(t) {
			checkLayout(t.Field(i).Type, seen)
		}
	default:
		panic(noLayout(t))
	}
}

// codecFault carries an error out of the codec's recursion to catch.
type codecFault struct{ error }

func catch(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(codecFault)
		if !ok {
			panic(r)
		}
		*err = f.error
	}
}

func appendValue(b []byte, v reflect.Value, depth int) []byte {
	switch k := v.Kind(); {
	case depth > maxNesting:
		panic(codecFault{errNesting})
	case k == reflect.Bool && v.Bool():
		return append(b, 1)
	case k == reflect.Pointer && !v.IsNil():
		return appendValue(append(b, 1), v.Elem(), depth+1)
	case k == reflect.Bool, k == reflect.Pointer, k == reflect.Map && v.IsNil():
		return append(b, 0)
	case k == reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case v.CanInt():
		return binary.AppendVarint(b, v.Int())
	case v.CanUint():
		return binary.AppendUvarint(b, v.Uint())
	case v.CanFloat():
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case k == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.Bytes()...)
	case k == reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		for i := range v.Len() {
			b = appendValue(b, v.Index(i), depth+1)
		}
		return b
	case k == reflect.Map && v.Type().Key().Kind() == reflect.String:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(x, y reflect.Value) int { return strings.Compare(x.String(), y.String()) })
		b = binary.AppendUvarint(append(b, 1), uint64(len(keys)))
		for _, key := range keys {
			b = appendValue(appendValue(b, key, depth+1), v.MapIndex(key), depth+1)
		}
		return b
	case len(exportedFields(v.Type())) > 0:
		for _, i := range exportedFields(v.Type()) {
			b = appendValue(b, v.Field(i), depth+1)
		}
		return b
	}
	panic(codecFault{noLayout(v.Type())})
}

// appendPayload appends the payload of v to b.
func appendPayload(b []byte, v any) (out []byte, err error) {
	defer catch(&err)
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		rv = rv.Elem()
	}
	if !rv.IsValid() {
		return nil, fmt.Errorf("transport: cannot encode a nil %T", v)
	}
	return appendValue(b, rv, 0), nil
}

// appendPayloadPooled encodes v into a getBuf buffer; release recycles
// it. A payload that outgrows the buffer leaves it behind, unpooled.
func appendPayloadPooled(v any) ([]byte, func(), error) {
	buf := getBuf(0)
	out, err := appendPayload(buf, v)
	if err != nil || cap(out) != cap(buf) {
		putBuf(buf)
		return out, nil, err
	}
	return out, func() { putBuf(out) }, nil
}

// decoder reads a payload off b, panicking at the first fault in it.
type decoder struct{ b []byte }

func (d *decoder) take(n int) []byte {
	if n > len(d.b) {
		panic(codecFault{errMalformed})
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// uvarint reads an unsigned varint no greater than limit.
func (d *decoder) uvarint(limit uint64) uint64 {
	x, n := binary.Uvarint(d.b)
	if d.take(max(n, 0)); n <= 0 || x > limit {
		panic(codecFault{errMalformed})
	}
	return x
}

// count reads how many values of t follow: they must fit in the bytes
// left at a byte each, a byte a field for a struct, plus extra.
func (d *decoder) count(t reflect.Type, extra int) int {
	return int(d.uvarint(uint64(len(d.b) / (extra + max(1, len(exportedFields(t)))))))
}

func (d *decoder) value(v reflect.Value, depth int) {
	switch t, k := v.Type(), v.Kind(); {
	case depth > maxNesting:
		panic(codecFault{errNesting})
	case k == reflect.Bool:
		v.SetBool(d.uvarint(1) == 1)
	case k == reflect.String:
		v.SetString(string(d.take(d.count(t, 0))))
	case v.CanInt():
		x := d.uvarint(math.MaxUint64 >> (64 - t.Bits())) // a zig-zag of t.Bits() bits
		v.SetInt(int64(x>>1) ^ -int64(x&1))
	case v.CanUint():
		v.SetUint(d.uvarint(math.MaxUint64 >> (64 - t.Bits())))
	case v.CanFloat():
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.take(8))))
	case k == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
		v.SetBytes(append([]byte(nil), d.take(d.count(t.Elem(), 0))...))
	case k == reflect.Slice:
		v.SetZero()
		if n := d.count(t.Elem(), 0); n > 0 {
			v.Set(reflect.MakeSlice(t, n, n))
			for i := range n {
				d.value(v.Index(i), depth+1)
			}
		}
	case k == reflect.Map && t.Key().Kind() == reflect.String:
		if v.SetZero(); d.uvarint(1) == 1 {
			n := d.count(t.Elem(), 1)
			v.Set(reflect.MakeMapWithSize(t, n))
			key, elem := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			for range n {
				d.value(key, depth+1)
				d.value(elem, depth+1)
				v.SetMapIndex(key, elem)
			}
		}
	case k == reflect.Pointer:
		if v.SetZero(); d.uvarint(1) == 1 {
			v.Set(reflect.New(t.Elem()))
			d.value(v.Elem(), depth+1)
		}
	case len(exportedFields(t)) > 0:
		for _, i := range exportedFields(t) {
			d.value(v.Field(i), depth+1)
		}
	default:
		panic(codecFault{noLayout(t)})
	}
}

// decodePayload decodes data into v, a non-nil pointer, allocating
// through any pointers beyond it. Nothing decoded aliases data.
func decodePayload(data []byte, v any) (err error) {
	defer catch(&err)
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("transport: cannot decode into %T", v)
	}
	for rv = rv.Elem(); rv.Kind() == reflect.Pointer; rv = rv.Elem() {
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
	}
	d := decoder{data}
	if d.value(rv, 0); len(d.b) > 0 {
		return fmt.Errorf("%w: %d bytes after the value", errMalformed, len(d.b))
	}
	return nil
}

// Invoke issues one typed call: req is encoded (nil sends no payload),
// the call goes out through the carrier's pooled path under the
// caller's span context (zero = untraced or fresh trace, as the carrier
// decides), and the response is decoded into resp, a pointer (nil
// discards it). Nothing decoded aliases the response, which Invoke
// releases exactly once before returning, decoded or not. The request
// is not pooled: a timed-out call can leave its frame queued for the
// writer.
func Invoke(c Client, sc obs.SpanContext, method string, req, resp any) error {
	var payload []byte
	if req != nil {
		var err error
		if payload, err = appendPayload(make([]byte, 0, 64), req); err != nil { // most requests fit
			return err
		}
	}
	out, release, err := CallInTracePooled(c, sc, method, payload)
	if err != nil {
		return err
	}
	if resp != nil {
		err = decodePayload(out, resp)
	}
	if release != nil {
		release()
	}
	return err
}

// Route mounts fn on the mux as method's handler: the request payload
// is decoded into a Req, fn's Resp is encoded as the response. A Req of
// struct{} means the method takes no argument (the payload is ignored),
// a Resp of struct{} that it returns none (a nil payload), as Invoke's
// nil req and nil resp do; Route panics on any other Req or Resp with
// no layout. Call it with inferred type arguments.
func Route[Req, Resp any](m *Mux, method string, fn func(Req) (Resp, error)) {
	RouteCtx(m, method, func(_ obs.SpanContext, req Req) (Resp, error) { return fn(req) })
}

// RouteCtx is Route for handlers that continue the request's trace. The
// response's pooled buffer is the serving connection's to release.
func RouteCtx[Req, Resp any](m *Mux, method string, fn func(obs.SpanContext, Req) (Resp, error)) {
	none := map[reflect.Type]bool{reflect.TypeFor[struct{}](): true} // "no payload" needs no layout
	checkLayout(reflect.TypeFor[Req](), none)
	checkLayout(reflect.TypeFor[Resp](), none)
	_, noReq := any(*new(Req)).(struct{})
	_, noResp := any(*new(Resp)).(struct{})
	m.RegisterPooled(method, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, func(), error) {
		var req Req
		if !noReq {
			if err := decodePayload(payload, &req); err != nil {
				return nil, nil, err
			}
		}
		resp, err := fn(sc, req)
		if err != nil || noResp {
			return nil, nil, err
		}
		return appendPayloadPooled(resp)
	})
}

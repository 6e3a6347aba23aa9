package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mits/internal/lint/leaktest"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/transport/wiretest"
)

// freshEncode and freshDecode are the reference the primed codecs are
// held to: one new gob encoder or decoder per message, which is what
// gobEncode and gobDecode were.
func freshEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("fresh encode of %T: %v", v, err)
	}
	return buf.Bytes()
}

func freshDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// wireSample is one wire type of the db.* service: the values a sender
// might encode (zero, typical, nil and empty slices, 1 MB of Data) and
// a fresh pointer to decode them into.
type wireSample struct {
	values []any
	target func() any
}

func wireSamples() []wireSample {
	big := bytes.Repeat([]byte{0xA5, 0x00, 0xFF, 0x7F}, 256<<10)
	kw := []string{"Engineering/ATM", "video"}
	return []wireSample{
		{[]any{getDocReq{}, getDocReq{Name: "elg5121.doc"}, getDocReq{Name: "elg5121.doc", Have: 0xf8ef2936b2a0664f}}, func() any { return new(getDocReq) }},
		{[]any{getContentReq{}, getContentReq{Ref: "intro/elg5121"}}, func() any { return new(getContentReq) }},
		{[]any{keywordReq{}, keywordReq{Keyword: "Engineering/ATM"}}, func() any { return new(keywordReq) }},
		{[]any{putDocResp{}, putDocResp{Version: 7}}, func() any { return new(putDocResp) }},
		{[]any{
			putDocReq{},
			putDocReq{Name: "elg5121.doc", Title: "Multimedia", Encoding: "asn1", Keywords: kw, Data: []byte{0x30, 0x03, 0x02, 0x01, 0x07}},
			putDocReq{Name: "empty", Keywords: []string{}, Data: []byte{}},
			putDocReq{Name: "big", Data: big},
		}, func() any { return new(putDocReq) }},
		{[]any{
			putContentReq{},
			putContentReq{Ref: "intro/elg5121", Coding: "mpeg", Keywords: kw, Data: []byte("frame-bytes")},
			putContentReq{Ref: "empty", Keywords: []string{}, Data: []byte{}},
			putContentReq{Ref: "big", Data: big},
		}, func() any { return new(putContentReq) }},
		{[]any{[]string(nil), []string{}, []string{"a.doc", "b.doc"}}, func() any { return new([]string) }},
		{[]any{
			&mediastore.KeywordNode{},
			&mediastore.KeywordNode{Children: []*mediastore.KeywordNode{
				{Name: "Engineering", Docs: []string{"a.doc"}, Children: []*mediastore.KeywordNode{{Name: "ATM", Docs: []string{"a.doc", "b.doc"}}}},
				{Name: "Arts"},
			}},
		}, func() any { return new(mediastore.KeywordNode) }},
		{[]any{uint64(0), uint64(7), uint64(0x9c13b2702cafba57)}, func() any { return new(uint64) }},
		{[]any{
			keywordTreeResp{},       // "unchanged" under tag 0: refused by every asker
			keywordTreeResp{Tag: 7}, // "unchanged": good only as the answer to have = 7
			keywordTreeResp{Root: &mediastore.KeywordNode{Children: []*mediastore.KeywordNode{{Name: "Arts"}}}}, // a tree under tag 0: shown, not held
			keywordTreeResp{Tag: 0x9c13b2702cafba57, Root: &mediastore.KeywordNode{Children: []*mediastore.KeywordNode{
				{Name: "Engineering", Docs: []string{"a.doc"}, Children: []*mediastore.KeywordNode{{Name: "ATM", Docs: []string{"a.doc", "b.doc"}}}},
			}}},
		}, func() any { return new(keywordTreeResp) }},
		{[]any{
			&mediastore.DocRecord{},
			&mediastore.DocRecord{Name: "elg5121.doc", Title: "Multimedia", Encoding: "asn1", Keywords: kw, Version: 3, Data: []byte{1, 2, 3}},
			&mediastore.DocRecord{Name: "empty", Keywords: []string{}, Data: []byte{}},
			&mediastore.DocRecord{Name: "big", Data: big},
			&mediastore.DocRecord{Name: "unchanged", Title: "Multimedia", Encoding: "asn1", Version: 3, Digest: 0xf8ef2936b2a0664f},
		}, func() any { return new(mediastore.DocRecord) }},
		{[]any{
			&mediastore.ContentRecord{},
			&mediastore.ContentRecord{Ref: "intro/elg5121", Coding: "mpeg", Keywords: kw, Data: bytes.Repeat([]byte("frame"), 13<<10)},
			&mediastore.ContentRecord{Ref: "empty", Keywords: []string{}, Data: []byte{}},
			&mediastore.ContentRecord{Ref: "big", Data: big},
		}, func() any { return new(mediastore.ContentRecord) }},
	}
}

// bothDecode decodes data with the primed codec and with a fresh
// decoder and fails unless they agree: on the error (text included — an
// error crosses the wire as text) or on the value.
func bothDecode(t *testing.T, what string, data []byte, target func() any) {
	t.Helper()
	primed, fresh := target(), target()
	perr, ferr := gobDecode(data, primed), freshDecode(data, fresh)
	switch {
	case (perr == nil) != (ferr == nil), perr != nil && perr.Error() != ferr.Error():
		t.Fatalf("%s: primed decode says %v, fresh decode says %v", what, perr, ferr)
	case perr == nil && !reflect.DeepEqual(primed, fresh):
		t.Fatalf("%s: primed decode gave %+v, fresh decode %+v", what, primed, fresh)
	}
}

// TestGobCodecDifferential holds the primed codecs to the fresh ones
// over every db.* wire type: encoding any sample any number of times
// gives a fresh encoder's bytes, into a plain buffer and a pooled one
// alike; decoding gives a fresh decoder's value, or its error — also
// right after the same pool has refused a damaged message.
func TestGobCodecDifferential(t *testing.T) {
	var audit atomic.Int64
	bufAudit.Store(&audit)
	defer bufAudit.Store(nil)
	for _, s := range wireSamples() {
		for i, v := range s.values {
			what := fmt.Sprintf("%T sample %d", v, i)
			want := freshEncode(t, v)
			for call := 1; call <= 3; call++ {
				got, err := gobEncode(v)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s, encode %d: %d bytes, %v; a fresh encoder writes %d\n got %x\nwant %x",
						what, call, len(got), err, len(want), head(got), head(want))
				}
				pooled, release, err := gobEncodePooled(v)
				if err != nil || !bytes.Equal(pooled, want) {
					t.Fatalf("%s, pooled encode %d differs from a fresh encoder's bytes (%v)", what, call, err)
				}
				release()
				bothDecode(t, what, want, s.target)
			}
			// Damage inside the value message, then a truncation: the
			// pool's decoder refuses them (or a fresh one would have
			// accepted them), and the next good message is unharmed.
			for _, cut := range []int{len(want) - 1, len(want) / 2, 1} {
				bothDecode(t, what+" truncated", want[:cut], s.target)
				damaged := bytes.Clone(want)
				damaged[cut] ^= 0x55
				bothDecode(t, what+" damaged", damaged, s.target)
				bothDecode(t, what+" after a refused message", want, s.target)
			}
		}
	}
	if n := audit.Load(); n != 0 {
		t.Errorf("pooled encodes left %d buffers out", n)
	}
}

func head(b []byte) []byte { return b[:min(len(b), 96)] }

// probeReq stands in for a wire type in the tests that teach a type new
// prefixes: learned prefixes are per target type and for good, and the
// real wire types' must stay as the rest of the suite left them.
// probeAs[T] is the same struct under another name and another type id
// per T — what a peer that met its types in another order sends.
type probeReq struct {
	Name string
	Tags []string
	Data []byte
}

type probeAs[T any] probeReq

func fallbacks(dir, reason string) int64 {
	return obs.GetCounter("transport_codec_fallback_total", "dir", dir, "reason", reason).Value()
}

// learnedPrefixes counts the prefixes decoders are kept for, for target.
func learnedPrefixes(target any) (n int) {
	c := codecFor(reflect.TypeOf(target))
	for i := range c.decoders {
		if c.decoders[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestGobCodecForeignPrefixes: a payload whose type definitions carry
// another process's type ids decodes like any other, its prefix learned
// by its bytes; past maxLearnedPrefixes further prefixes are decoded by
// a fresh decoder, one counted fallback per call, and the prefixes
// already learned keep their primed decoders.
func TestGobCodecForeignPrefixes(t *testing.T) {
	target := func() any { return new(probeReq) }
	v := probeReq{Name: "elg5121.doc", Tags: []string{"a", "b"}, Data: []byte("payload")}
	peers := [][]byte{
		freshEncode(t, v),
		freshEncode(t, probeAs[int8](v)), freshEncode(t, probeAs[int16](v)), freshEncode(t, probeAs[int32](v)),
		freshEncode(t, probeAs[int64](v)), freshEncode(t, probeAs[uint8](v)), freshEncode(t, probeAs[uint16](v)),
	}
	prefixes := map[string]bool{}
	for _, payload := range peers {
		defs, _, _ := splitGob(payload)
		prefixes[string(defs)] = true
	}
	if len(prefixes) != len(peers) {
		t.Fatal("two peers share a prefix; the test needs them distinct")
	}
	if len(peers) <= maxLearnedPrefixes+1 {
		t.Fatalf("need more than %d peers to pass the bound", maxLearnedPrefixes+1)
	}
	for round := 1; round <= 3; round++ {
		for i, payload := range peers {
			before, all := fallbacks("decode", "prefix_bound"), wiretest.CodecFallbacks()
			var got probeReq
			if err := gobDecode(payload, &got); err != nil || !reflect.DeepEqual(got, v) {
				t.Fatalf("round %d peer %d: decoded %+v, %v", round, i, got, err)
			}
			want := int64(0)
			if i >= maxLearnedPrefixes {
				want = 1
			}
			if n := fallbacks("decode", "prefix_bound") - before; n != want || wiretest.CodecFallbacks()-all != want {
				t.Errorf("round %d peer %d: %d prefix_bound fallbacks (%d in all), want %d",
					round, i, n, wiretest.CodecFallbacks()-all, want)
			}
			bothDecode(t, fmt.Sprintf("peer %d", i), payload, target)
			bothDecode(t, fmt.Sprintf("peer %d truncated", i), payload[:len(payload)-2], target)
		}
	}
	if learned := learnedPrefixes(new(probeReq)); learned != maxLearnedPrefixes {
		t.Errorf("%d prefixes learned, want the bound %d", learned, maxLearnedPrefixes)
	}
}

// padProbe is probeReq for the padded-prefix test, which counts what its
// target has learned.
type padProbe probeReq

// appendGobUint is gobUint's inverse.
func appendGobUint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	var be []byte
	for ; v > 0; v >>= 8 {
		be = append([]byte{byte(v)}, be...)
	}
	return append(append(b, byte(-len(be))), be...)
}

// redefine returns the type-definition message def with its type id
// replaced by id: the same definition, as gob reads it, of another type.
func redefine(t testing.TB, def []byte, id int) []byte {
	t.Helper()
	count, n := gobUint(def)
	if n == 0 || int(count) != len(def)-n {
		t.Fatalf("not one gob message: count %d in %d bytes", count, len(def))
	}
	was, m := gobUint(def[n:])
	if m == 0 || was&1 == 0 {
		t.Fatalf("not a type definition: id word %#x", was)
	}
	body := append(appendGobUint(nil, uint64(id-1)<<1|1), def[n+m:]...)
	return append(appendGobUint(nil, uint64(len(body))), body...)
}

// padPrefix returns defs ‖ value with defs' first definition repeated
// behind them, under type ids nothing uses, until the prefix is past
// maxPrefixBytes.
func padPrefix(t testing.TB, defs, value []byte) []byte {
	t.Helper()
	count, n := gobUint(defs)
	padded := bytes.Clone(defs)
	for id := 1000; len(padded) <= maxPrefixBytes; id++ {
		padded = append(padded, redefine(t, defs[:n+int(count)], id)...)
	}
	return append(padded, value...)
}

// TestGobCodecPaddedPrefix: gob accepts type definitions nothing uses, so
// a peer can put megabytes of them in front of a small value. Such a
// payload decodes as a fresh decoder decodes it, counted, and nothing of
// it is kept — not the prefix bytes, not a decoder holding its types —
// however often it comes; the honest prefix then still finds a slot.
func TestGobCodecPaddedPrefix(t *testing.T) {
	target := func() any { return new(padProbe) }
	v := padProbe{Name: "elg5121.doc", Data: []byte("small")}
	honest := freshEncode(t, v)
	defs, value, _ := splitGob(honest)
	padded := padPrefix(t, defs, value)
	if d, val, ok := splitGob(padded); !ok || len(d) <= maxPrefixBytes || !bytes.Equal(val, value) {
		t.Fatalf("the padded payload split into %d + %d bytes, ok=%v", len(d), len(val), ok)
	}
	for call := 1; call <= 3; call++ {
		before, all := fallbacks("decode", "oversize"), wiretest.CodecFallbacks()
		var got padProbe
		if err := gobDecode(padded, &got); err != nil || !reflect.DeepEqual(got, v) {
			t.Fatalf("call %d: padded payload decoded to %+v, %v", call, got, err)
		}
		if n := fallbacks("decode", "oversize") - before; n != 1 || wiretest.CodecFallbacks()-all != 1 {
			t.Errorf("call %d: %d oversize fallbacks (%d in all), want 1", call, n, wiretest.CodecFallbacks()-all)
		}
		bothDecode(t, "padded", padded, target)
		bothDecode(t, "padded, truncated", padded[:len(padded)-2], target)
	}
	if n := learnedPrefixes(new(padProbe)); n != 0 {
		t.Fatalf("%d prefixes learned from padded payloads, want none", n)
	}
	// One unused definition is a prefix like another: learned, under the bound.
	count, n := gobUint(defs)
	small := append(append(bytes.Clone(defs), redefine(t, defs[:n+int(count)], 1000)...), value...)
	for _, payload := range [][]byte{honest, small, honest, small} {
		all := wiretest.CodecFallbacks()
		bothDecode(t, "after the padded ones", payload, target)
		if n := wiretest.CodecFallbacks() - all; n != 0 {
			t.Errorf("%d fallbacks on a %d-byte payload under the prefix bound", n, len(payload))
		}
	}
	if n := learnedPrefixes(new(padProbe)); n != 2 {
		t.Errorf("%d prefixes learned, want 2", n)
	}
}

// TestGobCodecShapes: the splitter's answers for the shapes outside
// input comes in, each checked against a fresh decoder.
func TestGobCodecShapes(t *testing.T) {
	target := func() any { return new(probeReq) }
	whole := freshEncode(t, probeReq{Name: "n", Tags: []string{"t"}})
	defs, value, ok := splitGob(whole)
	if !ok || len(defs) == 0 || len(defs)+len(value) != len(whole) {
		t.Fatalf("a fresh encoder's payload split into %d + %d of %d bytes, ok=%v", len(defs), len(value), len(whole), ok)
	}
	str := freshEncode(t, "payload")
	if d, v, ok := splitGob(str); !ok || len(d) != 0 || len(v) != len(str) {
		t.Fatalf("a basic value split into %d + %d of %d bytes, ok=%v", len(d), len(v), len(str), ok)
	}
	for name, data := range map[string][]byte{
		"empty":                        nil,
		"not gob":                      []byte("not gob"),
		"value with no definitions":    value,
		"definitions with no value":    defs,
		"two values":                   append(bytes.Clone(whole), value...),
		"definition after the value":   append(bytes.Clone(whole), defs...),
		"definitions twice":            append(bytes.Clone(defs), whole...),
		"count overruns":               append(bytes.Clone(defs), 0x7f, 0x02),
		"zero count":                   append(bytes.Clone(defs), 0x00),
		"nine-byte count":              append(bytes.Clone(defs), 0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		"count of 2^63":                append(bytes.Clone(defs), 0xf8, 0x80, 0, 0, 0, 0, 0, 0, 0),
		"count byte 0x80":              append(bytes.Clone(defs), 0x80, 0x01),
		"message with a truncated id":  append(bytes.Clone(defs), 0x01, 0xfe),
		"garbage after a good payload": append(bytes.Clone(whole), 0xff, 0xff, 0xff),
	} {
		for call := 1; call <= 2; call++ {
			bothDecode(t, name, data, target)
		}
	}
}

// dynProbe and dynMany have what no wire type has: interface-typed
// fields, whose concrete types gob defines mid-stream the first time an
// encoder meets them.
type dynProbe struct{ V any }
type dynMany struct {
	Vs []any
	M  map[string]any
}
type dynA struct{ A string }
type dynB struct{ B any }

// TestGobCodecInterfaceField: a message that defines a concrete type on
// the way costs its encoder its place — later ones would lean on it —
// so whatever came before, each payload is a fresh encoder's; a payload
// of more than one message is a fresh decoder's to read. Both counted.
func TestGobCodecInterfaceField(t *testing.T) {
	gob.Register(dynA{})
	gob.Register(dynB{})

	// Why an encoder must go the first time it defines a concrete type,
	// not the first time it is seen to: once it has sent dynB it writes
	// dynProbe{dynB{dynA}} as ONE value message, dynA defined inside it
	// and dynB nowhere, which no check of what it wrote tells apart from
	// a message that stands alone.
	var out bytes.Buffer
	enc := gob.NewEncoder(&out)
	if err := enc.Encode(dynProbe{dynB{7}}); err != nil {
		t.Fatal(err)
	}
	prefix, value, _ := splitGob(out.Bytes())
	if len(prefix)+len(value) == out.Len() {
		t.Error("a fresh encoder wrote dynProbe{dynB{7}} as definitions and one message: nothing drops it")
	}
	prefix = bytes.Clone(prefix)
	out.Reset()
	if err := enc.Encode(dynProbe{dynB{dynA{"nested"}}}); err != nil {
		t.Fatal(err)
	}
	if defs, value, ok := splitGob(out.Bytes()); !ok || len(defs) != 0 || len(value) != out.Len() {
		t.Errorf("%d bytes of definitions and a %d-byte value message in %d bytes", len(defs), len(value), out.Len())
	} else if err := freshDecode(append(prefix, value...), new(dynProbe)); err == nil {
		t.Error("prefix ‖ that message decodes: gob no longer defines concrete types inside value messages")
	}

	values := []any{
		dynProbe{dynA{"x"}}, dynProbe{nil}, dynProbe{dynA{"y"}}, dynProbe{nil}, dynProbe{dynB{7}},
		dynProbe{dynB{dynA{"nested"}}}, dynProbe{dynB{dynA{"nested again"}}}, dynProbe{dynA{"z"}},
		dynMany{}, dynMany{Vs: []any{dynA{"a"}, dynB{dynA{"b"}}}}, dynMany{M: map[string]any{"k": dynB{dynA{"c"}}}},
		dynMany{}, dynMany{Vs: []any{dynB{dynA{"d"}}, nil}}, dynMany{Vs: []any{dynA{"e"}}},
	}
	for round := 1; round <= 3; round++ {
		for i, v := range values {
			target := func() any { return reflect.New(reflect.TypeOf(v)).Interface() }
			want := freshEncode(t, v)
			defs, value, _ := splitGob(want)
			multi := int64(0)
			if len(defs)+len(value) != len(want) {
				multi = 1
			}
			if nilIface := reflect.DeepEqual(v, dynProbe{}) || reflect.DeepEqual(v, dynMany{}); nilIface != (multi == 0) {
				t.Fatalf("value %d: %d messages too many for a value with nil interfaces = %v", i, multi, nilIface)
			}
			enc, dec := fallbacks("encode", "multi_message"), fallbacks("decode", "multi_message")
			got, err := gobEncode(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("round %d value %d: encode differs from a fresh encoder's\n got %x\nwant %x", round, i, got, want)
			}
			back := target()
			if err := gobDecode(got, back); err != nil || !reflect.DeepEqual(reflect.ValueOf(back).Elem().Interface(), v) {
				t.Errorf("round %d value %d: read back %+v, %v; want %+v", round, i, back, err, v)
			}
			bothDecode(t, fmt.Sprintf("value %d", i), got, target)
			if e, d := fallbacks("encode", "multi_message")-enc, fallbacks("decode", "multi_message")-dec; e != multi || d != 2*multi {
				t.Errorf("round %d value %d: %d encode and %d decode multi_message fallbacks, want %d and %d", round, i, e, d, multi, 2*multi)
			}
		}
	}
}

// TestGobCodecOversize: a message past maxPooledCodecBytes is encoded
// and decoded right, counted, and leaves no codec pinning it.
func TestGobCodecOversize(t *testing.T) {
	v := probeReq{Name: "big", Data: make([]byte, maxPooledCodecBytes+1)}
	for call := 1; call <= 2; call++ {
		enc, dec := fallbacks("encode", "oversize"), fallbacks("decode", "oversize")
		data, err := gobEncode(v)
		if err != nil || !bytes.Equal(data, freshEncode(t, v)) {
			t.Fatalf("call %d: oversize encode differs from a fresh encoder's (%v)", call, err)
		}
		bothDecode(t, "oversize", data, func() any { return new(probeReq) })
		if e, d := fallbacks("encode", "oversize")-enc, fallbacks("decode", "oversize")-dec; e != 1 || d != 1 {
			t.Errorf("call %d: %d encode and %d decode oversize fallbacks, want 1 and 1", call, e, d)
		}
	}
}

// TestRequestKeyReadsOnlyTheKey: the router learns where a put goes
// without materialising what it carries — one message buffer (gob's
// own), not that plus a copy of Data — and every keyed method yields
// its key.
func TestRequestKeyReadsOnlyTheKey(t *testing.T) {
	data := make([]byte, 1<<20)
	putDoc, _ := gobEncode(putDocReq{Name: "elg5121.doc", Title: "Multimedia", Encoding: "asn1", Keywords: []string{"k"}, Data: data})
	putContent, _ := gobEncode(putContentReq{Ref: "intro/elg5121", Coding: "mpeg", Keywords: []string{"k"}, Data: data})
	getDoc, _ := gobEncode(getDocReq{Name: "elg5121.doc"})
	getContent, _ := gobEncode(getContentReq{Ref: "intro/elg5121"})
	for _, tc := range []struct {
		method  string
		payload []byte
		key     string
	}{
		{MethodGetDoc, getDoc, "elg5121.doc"},
		{MethodPutDoc, putDoc, "elg5121.doc"},
		{MethodGetContent, getContent, "intro/elg5121"},
		{MethodPutContent, putContent, "intro/elg5121"},
		{MethodGetContentStream, mustStreamReq("intro/elg5121", 1<<16, 1<<16), "intro/elg5121"},
	} {
		for call := 1; call <= 3; call++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			key, err := RequestKey(tc.method, tc.payload)
			runtime.ReadMemStats(&after)
			if err != nil || key != tc.key {
				t.Fatalf("RequestKey(%s) = %q, %v; want %q", tc.method, key, err, tc.key)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(tc.payload))*3/2+16<<10; got > limit {
				t.Errorf("RequestKey(%s) call %d allocated %d bytes for a %d-byte payload, want under %d",
					tc.method, call, got, len(tc.payload), limit)
			}
		}
	}
	// A put's definitions are not a get's: read through views of their
	// own, puts (small enough to prime a decoder) leave the gets' bound
	// of learned prefixes alone.
	smallDoc, _ := gobEncode(putDocReq{Name: "elg5121.doc", Data: []byte("small")})
	smallContent, _ := gobEncode(putContentReq{Ref: "intro/elg5121", Data: []byte("small")})
	for call := 1; call <= 2; call++ {
		if key, err := RequestKey(MethodPutDoc, smallDoc); err != nil || key != "elg5121.doc" {
			t.Errorf("RequestKey(PutDocument) = %q, %v", key, err)
		}
		if key, err := RequestKey(MethodPutContent, smallContent); err != nil || key != "intro/elg5121" {
			t.Errorf("RequestKey(PutContent) = %q, %v", key, err)
		}
	}
	if d, c := learnedPrefixes(new(putDocKey)), learnedPrefixes(new(putContentKey)); d != 1 || c != 1 {
		t.Errorf("the put views learned %d and %d prefixes from one process's puts, want 1 and 1", d, c)
	}
}

// TestStubAllocBudget: what one typed round trip allocates, stub layer
// and store included, on the carrier with no wire in it. The count
// repeats exactly, so this is a ceiling in go test, not a timed gate:
// a fresh encoder and decoder per message, on both sides, was 385.
func TestStubAllocBudget(t *testing.T) {
	store := mediastore.New()
	if _, err := store.PutDocument("elg5121.doc", "Multimedia", "asn1", bytes.Repeat([]byte{7}, 4<<10), "Engineering/ATM"); err != nil {
		t.Fatal(err)
	}
	mux := NewMux()
	RegisterStore(mux, store)
	db := DBClient{C: Loopback{H: mux}}
	var audit atomic.Int64
	bufAudit.Store(&audit)
	defer bufAudit.Store(nil)
	allocs := testing.AllocsPerRun(200, func() {
		if rec, err := db.GetSelectedDoc("elg5121.doc", 0); err != nil || len(rec.Data) != 4<<10 {
			t.Fatalf("GetSelectedDoc = %+v, %v", rec, err)
		}
	})
	t.Logf("db.Get_Selected_Doc over Loopback: %.0f allocs/op", allocs)
	if allocs > 32 && !raceEnabled { // under the race detector sync.Pool is lossy on purpose
		t.Errorf("db.Get_Selected_Doc over Loopback costs %.0f allocs/op, budget 32", allocs)
	}
	if n := audit.Load(); n != 0 {
		t.Errorf("%d pooled buffers dropped", n)
	}
}

// TestReleaseBlindServeRecycles: a typed route's pooled response reaches
// a caller with no way to release it — Handle and HandleCtx on the mux,
// the ATM session's server — as bytes of its own, the size of the answer
// and not of a buffer class, and the pooled buffer goes back.
func TestReleaseBlindServeRecycles(t *testing.T) {
	data := bytes.Repeat([]byte{0x3C}, 64<<10)
	store := mediastore.New()
	if err := store.PutContent("intro/elg5121", "mpeg", data); err != nil {
		t.Fatal(err)
	}
	mux := NewMux()
	RegisterStore(mux, store)
	n, user, db := atmTestNet(t)
	sess, err := OpenATMSession(n, user, db, mux, ATMSessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	req, _ := gobEncode(getContentReq{Ref: "intro/elg5121"})

	var audit atomic.Int64
	bufAudit.Store(&audit)
	defer bufAudit.Store(nil)
	for name, call := range map[string]func() ([]byte, error){
		"Mux.Handle":    func() ([]byte, error) { return mux.Handle(MethodGetContent, req) },
		"Mux.HandleCtx": func() ([]byte, error) { return mux.HandleCtx(obs.SpanContext{}, MethodGetContent, req) },
		"Loopback.Call": func() ([]byte, error) { return Loopback{H: mux}.Call(MethodGetContent, req) },
		"ATM session":   func() ([]byte, error) { return sess.CallOver(MethodGetContent, req) },
	} {
		out, err := call()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ck, err := DecodeContentChunk(out); err != nil || !bytes.Equal(ck.Data, data) {
			t.Errorf("%s: the response does not decode to the object (%v)", name, err)
		}
		if cap(out) >= 2*len(out) {
			t.Errorf("%s: a %d-byte response in a %d-byte buffer", name, len(out), cap(out))
		}
		if n := audit.Load(); n != 0 {
			t.Errorf("%s: %d pooled buffers dropped", name, n)
		}
	}
}

// TestCodecConcurrent: eight callers drive every gob db.* method at
// once, over TCP and over loopback, through the same process-wide
// codec pools; every value comes back right, and once both ends are
// closed every pooled buffer is back.
func TestCodecConcurrent(t *testing.T) {
	leaktest.Check(t)
	var audit atomic.Int64
	bufAudit.Store(&audit)
	defer bufAudit.Store(nil)

	mux := NewMux()
	RegisterStore(mux, mediastore.New())
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := DialTCPPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		db := DBClient{C: pool}
		if g%2 == 1 {
			db = DBClient{C: Loopback{H: mux}}
		}
		wg.Add(1)
		go func(g int, db DBClient) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := codecRound(db, g, r); err != nil {
					t.Errorf("caller %d round %d: %v", g, r, err)
					return
				}
			}
		}(g, db)
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Errorf("pool close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	if n := audit.Load(); n != 0 {
		t.Errorf("pooled buffers out of balance by %d after both ends closed", n)
	}
}

// codecRound publishes a document and an object only caller g writes,
// and reads them back through every gob db.* method and the chunked
// GetContentStream.
func codecRound(db DBClient, g, r int) error {
	name, ref, kw := fmt.Sprintf("doc-%d", g), fmt.Sprintf("obj-%d", g), fmt.Sprintf("callers/c%d", g)
	body := bytes.Repeat([]byte{byte(g), byte(r)}, 1+(g+1)*(r+1)*1777%(48<<10))
	version, err := db.PutDocument(name, "Title "+name, "asn1", body, kw)
	if err != nil || version != r+1 {
		return fmt.Errorf("PutDocument = %d, %v; want version %d", version, err, r+1)
	}
	if err := db.PutContent(ref, "mpeg", body, kw); err != nil {
		return err
	}
	doc, err := db.GetSelectedDoc(name, 0)
	if err != nil || doc.Version != version || doc.Title != "Title "+name || !bytes.Equal(doc.Data, body) {
		return fmt.Errorf("GetSelectedDoc = v%d %q %d bytes, %v", doc.Version, doc.Title, len(doc.Data), err)
	}
	rec, err := db.GetContent(ref)
	if err != nil || rec.Ref != ref || rec.Coding != "mpeg" || !bytes.Equal(rec.Data, body) {
		return fmt.Errorf("GetContent = %q %q %d bytes, %v", rec.Ref, rec.Coding, len(rec.Data), err)
	}
	if rec, err = db.GetContentStream(ref, nil); err != nil {
		return fmt.Errorf("GetContentStream: %w", err)
	} else if rec.Ref != ref || !bytes.Equal(rec.Data, body) {
		return fmt.Errorf("GetContentStream = %q %d bytes, want %q %d bytes", rec.Ref, len(rec.Data), ref, len(body))
	}
	names, err := db.GetDocByKeyword(kw)
	if err != nil || len(names) != 1 || names[0] != name {
		return fmt.Errorf("GetDocByKeyword(%s) = %v, %v", kw, names, err)
	}
	if names, err = db.GetListDoc(); err != nil || !contains(names, name) {
		return fmt.Errorf("GetListDoc = %v, %v; want %s in it", names, err, name)
	}
	tree, _, err := db.GetKeywordTree(0)
	if err != nil || len(tree.Children) == 0 {
		return fmt.Errorf("GetKeywordTree = %+v, %v", tree, err)
	}
	if _, err := db.GetSelectedDoc("no-such-doc", 0); err == nil {
		return fmt.Errorf("GetSelectedDoc of a missing document succeeded")
	}
	return nil
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

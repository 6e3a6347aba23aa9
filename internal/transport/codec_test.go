package transport

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mits/internal/lint/leaktest"
	"mits/internal/mediastore"
	"mits/internal/obs"
)

// gobRoundTrip is the reference the payload codec is held to: what a
// value came back as when gob carried it.
func gobRoundTrip(t testing.TB, v any, into any) {
	t.Helper()
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v))).Decode(into); err != nil {
		t.Fatalf("gob decode of %T: %v", v, err)
	}
}

// gobBytes is what a fresh gob encoder writes for v.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode of %T: %v", v, err)
	}
	return buf.Bytes()
}

// kindProbe nests every kind the school, exercise and facilitator
// messages carry (their types are their packages' own): bools, sized
// and unsized integers, a Duration, floats, strings, slices of strings
// and of structs, string-keyed maps of floats and of structs, and a
// pointer to the message's own type.
type kindProbe struct {
	Flag    bool
	Small   int8
	N       int
	At      time.Duration
	U       uint64
	F       float64
	S       string
	Strings []string
	Scores  map[string]float64
	Results map[string]kindResult
	Items   []kindResult
	Next    *kindProbe
}

type kindResult struct {
	Correct  bool
	Earned   int
	Feedback string
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
		{[]any{contentDigestReq{}, contentDigestReq{Ref: "intro/elg5121"}}, func() any { return new(contentDigestReq) }},
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
			kindProbe{},
			kindProbe{Strings: []string{}, Scores: map[string]float64{}, Items: []kindResult{}},
			kindProbe{
				Flag: true, Small: -128, N: -1, At: 90 * time.Second, U: 1 << 63, F: -0.25, S: "probe",
				Strings: []string{"", "b", "a"}, Scores: map[string]float64{"p2": 0.5, "p1": 1, "p0": 0},
				Results: map[string]kindResult{"q2": {}, "q1": {Correct: true, Earned: 3}, "q3": {Feedback: "see §2"}},
				Items:   []kindResult{{}, {Earned: -2}},
				Next:    &kindProbe{Next: &kindProbe{S: "third"}},
			},
		}, func() any { return new(kindProbe) }},
		{[]any{
			&mediastore.ContentRecord{},
			&mediastore.ContentRecord{Ref: "intro/elg5121", Coding: "mpeg", Keywords: kw, Data: bytes.Repeat([]byte("frame"), 13<<10)},
			&mediastore.ContentRecord{Ref: "empty", Keywords: []string{}, Data: []byte{}},
			&mediastore.ContentRecord{Ref: "big", Data: big},
		}, func() any { return new(mediastore.ContentRecord) }},
	}
}

// TestGobCodecDifferential holds the payload codec to encoding/gob:
// every value a db.* route or stub sends, and a probe of every kind the
// other services send, decodes to what a gob round trip of it gave — nil and empty slices alike as nil, maps with
// every entry, nil and set pointers as they were, zero fields as zero —
// through a plain buffer and a pooled one, and encodes to the same bytes
// every time (maps included, in key order).
func TestGobCodecDifferential(t *testing.T) {
	var audit atomic.Int64
	bufAudit.Store(&audit)
	defer bufAudit.Store(nil)
	for _, s := range wireSamples() {
		for i, v := range s.values {
			payload, err := appendPayload(nil, v)
			if err != nil {
				t.Fatalf("%T sample %d: %v", v, i, err)
			}
			pooled, release, err := appendPayloadPooled(v)
			if err != nil || !bytes.Equal(pooled, payload) {
				t.Fatalf("%T sample %d: pooled encode %x, %v; plain %x", v, i, pooled, err, payload)
			}
			if release != nil {
				release()
			}
			for again := 0; again < 3; again++ {
				if b, _ := appendPayload(nil, v); !bytes.Equal(b, payload) {
					t.Fatalf("%T sample %d encodes to %x, then to %x", v, i, payload, b)
				}
			}
			got, want := s.target(), s.target()
			gobRoundTrip(t, v, want)
			if err := decodePayload(payload, got); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%T sample %d: decoded %+v, %v; gob gave %+v", v, i, got, err, want)
			}
		}
	}
	if n := audit.Load(); n != 0 {
		t.Errorf("pooled encodes left %d buffers out", n)
	}
}

// TestPayloadDecodeRefuses: a payload cut anywhere, followed by a byte,
// counting more than the bytes left can hold, nested past maxNesting, or
// with a flag byte other than 0 and 1, is an error and never a panic.
func TestPayloadDecodeRefuses(t *testing.T) {
	full := &mediastore.DocRecord{Name: "n", Title: "t", Keywords: []string{"k"}, Version: 2, Data: []byte("data"), Digest: 9}
	payload, err := appendPayload(nil, full)
	if err != nil {
		t.Fatal(err)
	}
	for cut := range len(payload) {
		if err := decodePayload(payload[:cut], new(mediastore.DocRecord)); err == nil {
			t.Errorf("a payload cut to %d of %d bytes decoded", cut, len(payload))
		}
	}
	if err := decodePayload(append(payload, 0), new(mediastore.DocRecord)); err == nil || !strings.Contains(err.Error(), "1 bytes after the value") {
		t.Errorf("a trailing byte: %v", err)
	}
	deep := &mediastore.KeywordNode{Name: "leaf"} // its name nests 1 deep, each level above adds 3
	for level := 1; 3*(level-2)+1 <= maxNesting; level++ {
		payload, err := appendPayload(nil, deep)
		back := new(mediastore.KeywordNode)
		if fits := 3*(level-1)+1 <= maxNesting; fits != (err == nil) || fits && (decodePayload(payload, back) != nil || !reflect.DeepEqual(back, deep)) {
			t.Fatalf("a keyword tree %d levels deep: encode error %v", level, err)
		}
		deep = &mediastore.KeywordNode{Children: []*mediastore.KeywordNode{deep}}
	}
	for name, tc := range map[string]struct {
		data   []byte
		target any
	}{
		"string longer than the payload":   {[]byte{5, 'a'}, new(string)},
		"count past the bytes left":        {[]byte{3, 1, 'a', 1}, new([]string)},
		"structs past a byte a field":      {[]byte{3, 0, 0, 0, 0, 0, 0}, new([]kindResult)},
		"map entries past the bytes left":  {[]byte{1, 2, 1, 'k', 0, 0, 0, 0, 0, 0, 0, 0}, new(map[string]float64)},
		"bool byte 2":                      {[]byte{2}, new(bool)},
		"presence byte 2":                  {[]byte{0, 2}, new(keywordTreeResp)},
		"int8 out of range":                {[]byte{0x80, 0x02}, new(int8)},
		"varint past 64 bits":              {bytes.Repeat([]byte{0xff}, 11), new(uint64)},
		"a chain of pointers past the cap": {bytes.Repeat([]byte{0, 1, 0, 1}, maxNesting), new(keywordTreeResp)},
	} {
		if err := decodePayload(tc.data, tc.target); err == nil {
			t.Errorf("%s: decoded %x into %T", name, tc.data, tc.target)
		}
	}
}

// TestRouteRefusesTypesWithoutLayout: a Req or Resp holding a kind the
// layout has no form for panics at mount, before any request.
func TestRouteRefusesTypesWithoutLayout(t *testing.T) {
	type withChan struct{ C chan int }
	type unexported struct{ n int }
	mount := func(name string, route func(m *Mux)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s mounted", name)
			}
		}()
		route(NewMux())
	}
	mount("chan field", func(m *Mux) { Route(m, "m", func(string) (withChan, error) { return withChan{}, nil }) })
	mount("func slice", func(m *Mux) { Route(m, "m", func([]func()) (struct{}, error) { return struct{}{}, nil }) })
	mount("array", func(m *Mux) { Route(m, "m", func([4]byte) (struct{}, error) { return struct{}{}, nil }) })
	mount("int-keyed map", func(m *Mux) { Route(m, "m", func(map[int]string) (struct{}, error) { return struct{}{}, nil }) })
	mount("no exported field", func(m *Mux) { Route(m, "m", func(string) (*unexported, error) { return nil, nil }) })
	mount("time.Time", func(m *Mux) { Route(m, "m", func(time.Time) (struct{}, error) { return struct{}{}, nil }) })
	Route(NewMux(), "m", func(struct{}) (*kindProbe, error) { return nil, nil }) // recursive, and every kind: mounts
}

// TestGobCodecShapes: what a peer still speaking gob sends — a fresh
// encoder's message with its type definitions, the bare value message a
// warm encoder writes next, two values in a row, and the gob payloads
// of the wire script — is refused by the payload decoder of its type.
// One shape is not: a bare value message whose gob byte count is one
// byte long reads as a string of the rest, so a request of one string
// field (getContentReq, keywordReq) takes it as a key with gob's type
// id and field delta in it. No layout without type names can tell.
func TestGobCodecShapes(t *testing.T) {
	for _, s := range wireSamples() {
		for i, v := range s.values {
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			whole := bytes.Clone(buf.Bytes())
			buf.Reset()
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			value := buf.Bytes()
			for shape, data := range map[string][]byte{
				"whole":         whole,
				"value message": value,
				"two values":    append(bytes.Clone(whole), value...),
			} {
				if got := s.target(); decodePayload(data, got) == nil && (shape != "value message" || int(data[0]) != len(data)-1) {
					t.Errorf("%T sample %d, gob %s: decoded %x as %+v", v, i, shape, data, got)
				}
			}
		}
	}
	for seed, target := range map[string]any{
		gobContentReply:                  new(mediastore.ContentRecord),
		strings.Fields(gobGetDocCall)[0]: new(getDocReq),
		strings.Fields(gobGetDocCall)[1]: new(mediastore.DocRecord),
	} {
		data, err := hex.DecodeString(seed)
		if err != nil {
			t.Fatal(err)
		}
		if decodePayload(data, target) == nil {
			t.Errorf("the wire script's gob payload %x decoded as %+v", data, target)
		}
	}
}

// TestGobCodecForeignPrefixes: a payload carries no type definitions
// and leans on none another message left behind, so a value's bytes are
// the same whichever types were encoded and decoded before it, in
// whatever order — what one peer writes any other reads.
func TestGobCodecForeignPrefixes(t *testing.T) {
	samples := wireSamples()
	first := make(map[[2]int][]byte)
	for order := range 2 {
		for k := range samples {
			if order == 1 {
				k = len(samples) - 1 - k
				_ = decodePayload([]byte{0xff, 0xff, 0x01}, samples[k].target()) // a refused message in between
			}
			for i, v := range samples[k].values {
				payload, err := appendPayload(nil, v)
				if err != nil {
					t.Fatal(err)
				}
				if order == 0 {
					first[[2]int{k, i}] = payload
				} else if !bytes.Equal(payload, first[[2]int{k, i}]) {
					t.Errorf("%T sample %d encodes to %x after the other types, to %x before them", v, i, payload, first[[2]int{k, i}])
				}
				if got := samples[k].target(); decodePayload(payload, got) != nil {
					t.Errorf("%T sample %d does not decode after the other types", v, i)
				}
			}
		}
	}
}

// TestGobCodecInterfaceField: gob carried an interface field as a
// registered concrete type named on the wire; the payload layout has no
// form for one. A Req or Resp holding one panics at mount, Invoke
// refuses to encode one and sends nothing, and no payload decodes into one.
func TestGobCodecInterfaceField(t *testing.T) {
	type withIface struct {
		Name string
		V    any
	}
	mount := func(name string, route func(m *Mux)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s mounted", name)
			}
		}()
		route(NewMux())
	}
	mount("interface request", func(m *Mux) { Route(m, "m", func(any) (int, error) { return 0, nil }) })
	mount("interface field in a request", func(m *Mux) { Route(m, "m", func(withIface) (int, error) { return 0, nil }) })
	mount("interface field in a reply", func(m *Mux) { Route(m, "m", func(string) (*withIface, error) { return nil, nil }) })

	var calls atomic.Int64
	peer := HandlerFunc(func(string, []byte) ([]byte, error) { calls.Add(1); return nil, nil })
	for _, req := range []any{withIface{Name: "n", V: 7}, withIface{Name: "nil"}, &withIface{V: "s"}} {
		if err := Invoke(Loopback{H: peer}, obs.SpanContext{}, "m", req, nil); err == nil || !strings.Contains(err.Error(), "has no payload layout") {
			t.Errorf("Invoke with %+v: %v", req, err)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d calls went out", n)
	}
	for _, data := range [][]byte{{1, 'n'}, {1, 'n', 0}, {1, 'n', 1, 7}} {
		if err := decodePayload(data, new(withIface)); err == nil {
			t.Errorf("%x decoded into an interface field", data)
		}
	}
}

// TestGobCodecOversize: a reply past the largest pooled buffer class is
// encoded on the pooled path into a buffer of its own — handed back
// with no release, so no class buffer stays out and no pool pins it —
// and arrives through Route and Invoke as gob carried it.
func TestGobCodecOversize(t *testing.T) {
	var audit atomic.Int64
	bufAudit.Store(&audit)
	defer bufAudit.Store(nil)
	v := &mediastore.ContentRecord{Ref: "big", Coding: "mpeg", Data: bytes.Repeat([]byte{0xA5, 0}, bufClasses[len(bufClasses)-1]/2+1)}
	payload, release, err := appendPayloadPooled(v)
	if err != nil || release != nil || len(payload) <= bufClasses[len(bufClasses)-1] {
		t.Fatalf("pooled encode: %d bytes, release %v, %v", len(payload), release != nil, err)
	}
	mux := NewMux()
	Route(mux, "big", func(string) (*mediastore.ContentRecord, error) { return v, nil })
	got, want := new(mediastore.ContentRecord), new(mediastore.ContentRecord)
	gobRoundTrip(t, v, want)
	if err := Invoke(Loopback{H: mux}, obs.SpanContext{}, "big", "big", got); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("routed oversize reply: %d bytes of data, %v; gob gave %d", len(got.Data), err, len(want.Data))
	}
	if n := audit.Load(); n != 0 {
		t.Errorf("oversize encodes left %d buffers out", n)
	}
}

// TestRequestKeyReadsOnlyTheKey: the router learns where a request goes
// from the key it leads with — a put's megabyte of Data is neither
// decoded nor copied — and every keyed method yields its key.
func TestRequestKeyReadsOnlyTheKey(t *testing.T) {
	data := make([]byte, 1<<20)
	putDoc, _ := appendPayload(nil, putDocReq{Name: "elg5121.doc", Title: "Multimedia", Encoding: "asn1", Keywords: []string{"k"}, Data: data})
	putContent, _ := appendPayload(nil, putContentReq{Ref: "intro/elg5121", Coding: "mpeg", Keywords: []string{"k"}, Data: data})
	getDoc, _ := appendPayload(nil, getDocReq{Name: "elg5121.doc", Have: 7})
	getContent, _ := appendPayload(nil, getContentReq{Ref: "intro/elg5121"})
	contentDigest, _ := appendPayload(nil, contentDigestReq{Ref: "intro/elg5121"})
	for _, tc := range []struct {
		method  string
		payload []byte
		key     string
	}{
		{MethodGetDoc, getDoc, "elg5121.doc"},
		{MethodPutDoc, putDoc, "elg5121.doc"},
		{MethodGetContent, getContent, "intro/elg5121"},
		{MethodContentDigest, contentDigest, "intro/elg5121"},
		{MethodPutContent, putContent, "intro/elg5121"},
		{MethodGetContentStream, mustStreamReq("intro/elg5121", 1<<16, 1<<16), "intro/elg5121"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		key, err := RequestKey(tc.method, tc.payload)
		runtime.ReadMemStats(&after)
		if err != nil || key != tc.key {
			t.Fatalf("RequestKey(%s) = %q, %v; want %q", tc.method, key, err, tc.key)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 { // the key, and room for the process's other goroutines
			t.Errorf("RequestKey(%s) allocated %d bytes for a %d-byte payload, want the key's", tc.method, got, len(tc.payload))
		}
		if _, err := RequestKey(tc.method, tc.payload[:1+len(tc.key)/2]); err == nil {
			t.Errorf("RequestKey(%s) read a key from a payload cut inside it", tc.method)
		}
	}
}

// TestStubAllocBudget: what one typed round trip allocates, stub layer
// and store included, on the carrier with no wire in it. The count
// repeats exactly, so this is a ceiling in go test, not a timed gate:
// a fresh gob encoder and decoder per message, on both sides, was 385,
// primed ones 24; the payload codec takes 17, + 10 %.
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
	if allocs > 19 && !raceEnabled { // under the race detector sync.Pool is lossy on purpose
		t.Errorf("db.Get_Selected_Doc over Loopback costs %.0f allocs/op, budget 19", allocs)
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
	sess, err := OpenATMSession(n, user, db, mux, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	req, _ := EncodeGetContent("intro/elg5121")

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

// TestCodecConcurrent: eight callers drive every typed db.* method at
// once, over TCP and over loopback, through the same process-wide
// buffer pools; every value comes back right, and once both ends are
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
// and reads them back through every typed db.* method and the chunked
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

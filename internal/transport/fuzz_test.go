package transport

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// FuzzFrameDecode throws arbitrary bytes at the frame decoder. The
// seeds cover the one header layout with and without a correlation ID
// and a trace context, plus the kind bytes of the two retired layouts
// (which must be rejected, not misparsed). Anything that decodes must
// survive a marshal/unmarshal round trip unchanged.
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range []*frame{
		{kind: kindRequest, id: 1, method: "GetDoc", payload: []byte("atm-course")},
		{kind: kindResponse, id: 1, payload: []byte{1, 2, 3}},
		{kind: kindResponse, id: 7, errText: "transport: unknown method"},
		{kind: kindRequest, id: 9, trace: 0xdeadbeef, span: 0x42, method: "Search", payload: []byte("broadband")},
		{kind: kindResponse, id: 9, trace: 0xdeadbeef, span: 0x43},
		{kind: kindRequest, id: 11, corr: 11, method: "db.GetContent", payload: []byte("store/v.mpg")},
		{kind: kindRequest, id: 12, corr: 12, trace: 0xfeed, span: 0x7, method: "db.GetContent"},
		{kind: kindResponse, id: 12, corr: 12, trace: 0xfeed, span: 0x7, payload: []byte{9}},
		{kind: kindResponse, id: 13, corr: 13, errText: "transport: unknown method"},
		// GetContentStream traffic: a chunk request and chunk responses,
		// including the shapes the stream checks exist for — one
		// truncated mid-chunk, one with an out-of-order index, one
		// zero-length terminal chunk.
		{kind: kindRequest, id: 14, corr: 14, method: MethodGetContentStream, payload: mustStreamReq("store/v.mpg", 0, 262144)},
		{kind: kindResponse, id: 14, corr: 14, payload: mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 8, Data: []byte("01234567"), Last: true, Keywords: []string{"video"}})},
		{kind: kindResponse, id: 15, corr: 15, payload: mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Offset: 262144, Index: 1, Data: []byte("partial")})[:20]},
		{kind: kindResponse, id: 16, corr: 16, payload: mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Offset: 262144, Index: 7, Data: []byte("ooo")})},
		{kind: kindResponse, id: 17, corr: 17, payload: mustChunk(&ContentChunk{Ref: "store/empty", Coding: "MPEG", Total: 0, Last: true})},
	} {
		f.Add(fr.marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0})
	f.Add([]byte{byte(kindRequest), 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := unmarshalFrame(data)
		if err != nil {
			return
		}
		fr2, err := unmarshalFrame(fr.marshal())
		if err != nil {
			t.Fatalf("decoded frame failed to re-decode: %v", err)
		}
		if fr2.kind != fr.kind || fr2.id != fr.id || fr2.corr != fr.corr ||
			fr2.trace != fr.trace || fr2.span != fr.span || fr2.method != fr.method ||
			fr2.errText != fr.errText || !bytes.Equal(fr2.payload, fr.payload) {
			t.Fatalf("round trip changed frame:\n%+v\n%+v", fr, fr2)
		}
	})
}

// mustStreamReq / mustChunk build fuzz seeds; the inputs are static and
// known-good, so an encode failure is a seed bug worth a panic.
func mustStreamReq(ref string, offset uint64, maxBytes uint32) []byte {
	b, err := EncodeGetContentStream(ref, offset, maxBytes)
	if err != nil {
		panic(err)
	}
	return b
}

func mustChunk(c *ContentChunk) []byte {
	b, err := AppendContentChunk(nil, c)
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzContentChunkDecode throws arbitrary bytes at the chunk and
// stream-request decoders. Anything that decodes must re-encode and
// re-decode to the same chunk — and never alias beyond the payload —
// and a client assembling a stream from a peer that answers with it
// must end with the object or ErrBadChunk, never a panic or an
// allocation sized by the chunk's claimed total.
func FuzzContentChunkDecode(f *testing.F) {
	f.Add(mustStreamReq("store/v.mpg", 1<<20, 262144))
	f.Add(mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 8, Data: []byte("01234567"), Last: true, Keywords: []string{"video", "atm/demo"}}))
	f.Add(mustChunk(&ContentChunk{Ref: "r", Total: 0, Last: true}))
	f.Add(mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Offset: 262144, Index: 1, Data: []byte("mid")})[:12])
	// A non-final first chunk claiming an absurd total: the assembly
	// buffer must not be sized by it.
	f.Add(mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 62, Data: []byte("7 bytes")}))
	// Non-terminal chunks that do not carry the requested bytes: short,
	// and empty (which used to spin the chunk loop forever when the peer
	// also echoed the expected index).
	f.Add(mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Data: bytes.Repeat([]byte("s"), DefaultStreamChunkBytes-1)}))
	f.Add(mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20}))
	// A keyword count the payload cannot hold: it sized a make before any
	// keyword was read.
	f.Add(append(mustChunk(&ContentChunk{Ref: "r", Last: true, Keywords: []string{"k"}})[:27], 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ref, off, maxBytes, err := DecodeGetContentStream(data); err == nil {
			re := mustStreamReq(ref, off, maxBytes)
			if !bytes.Equal(re, data) {
				t.Fatalf("stream request round trip changed: %x -> %x", data, re)
			}
		}
		c, err := DecodeContentChunk(data)
		if err != nil {
			return
		}
		re, err := AppendContentChunk(nil, c)
		if err != nil {
			t.Fatalf("decoded chunk failed to re-encode: %v", err)
		}
		c2, err := DecodeContentChunk(re)
		if err != nil {
			t.Fatalf("re-encoded chunk failed to decode: %v", err)
		}
		if c2.Ref != c.Ref || c2.Coding != c.Coding || c2.Index != c.Index ||
			c2.Offset != c.Offset || c2.Total != c.Total || c2.Last != c.Last ||
			!bytes.Equal(c2.Data, c.Data) {
			t.Fatalf("chunk round trip changed:\n%+v\n%+v", c, c2)
		}
		peer := HandlerFunc(func(string, []byte) ([]byte, error) { return data, nil })
		rec, err := DBClient{C: Loopback{H: peer}}.GetContentStream(c.Ref, nil)
		switch {
		case err != nil && !errors.Is(err, ErrBadChunk):
			t.Fatalf("stream assembly failed with %v, want ErrBadChunk", err)
		case err == nil && (!bytes.Equal(rec.Data, c.Data) || cap(rec.Data) > MaxFrame):
			t.Fatalf("stream assembled %d bytes (cap %d) from a %d-byte chunk", len(rec.Data), cap(rec.Data), len(c.Data))
		}
		// The same bytes as a db.GetContent reply: the whole object or
		// ErrBadChunk, and whole means what a stream would have assembled.
		whole, werr := DBClient{C: Loopback{H: peer}}.GetContent(c.Ref)
		switch {
		case werr != nil && !errors.Is(werr, ErrBadChunk):
			t.Fatalf("GetContent failed with %v, want ErrBadChunk", werr)
		case werr == nil && (err != nil || !bytes.Equal(whole.Data, c.Data) || c.Index != 0 || c.Offset != 0 || !c.Last):
			t.Fatalf("GetContent took chunk %d at %d (last %v) for the whole object; the stream says %v", c.Index, c.Offset, c.Last, err)
		}
	})
}

// gobContentReply is the db.GetContent reply of the wire script as the
// route sent it while it answered with a gob ContentRecord; a peer that
// sends it now is refused.
const gobContentReply = "45ff950301010d436f6e74656e745265636f726401ff960001040103526566010c000106436f64696e67010c0001084b6579776f72647301ff8200010444617461010a00000016ff81020101085b5d737472696e6701ff8200010c000037ff96010d696e74726f2f656c673531323101046d70656701010f456e67696e656572696e672f41544d010b6672616d652d627974657300"

// gobGetDocCall is the wire script's db.Get_Selected_Doc request and
// reply while payloads were gob, before the request named a digest.
const gobGetDocCall = "20ff8703010109676574446f6352657101ff8800010101044e616d65010c00000010ff88010b656c67353132312e646f6300 5aff8903010109446f635265636f726401ff8a00010601044e616d65010c0001055469746c65010c000108456e636f64696e67010c0001084b6579776f72647301ff8200010756657273696f6e010400010444617461010a00000016ff81020101085b5d737472696e6701ff8200010c00003dff8a010b656c67353132312e646f63010a4d756c74696d65646961010461736e3101010f456e67696e656572696e672f41544d01020105300302010700"

// FuzzPayloadDecode throws arbitrary bytes at the payload decoder, into
// every db.* wire type and a probe of every kind the other services'
// messages use: it never panics, never allocates more than
// payloadAllocRatio times the input (plus a little), and whatever it
// decodes re-encodes to bytes that decode and re-encode unchanged. Every
// input also reaches GetKeywordTree as a reply, which yields a tree, or
// "unchanged" under the tag asked with, or an error — never neither.
// Seeds: every payload of the wire script, whole and cut, every sample
// value of at most 1 KB, and the gob payloads of the script before the
// codec.
func FuzzPayloadDecode(f *testing.F) {
	wire, err := recordWire()
	if err != nil {
		f.Fatal(err)
	}
	for _, call := range wire.Calls {
		for _, payload := range [][]byte{call.Req, call.Resp} {
			f.Add(payload)
			f.Add(payload[:len(payload)/2])
		}
	}
	for _, s := range wireSamples() {
		for _, v := range s.values {
			if payload, err := appendPayload(nil, v); err == nil && len(payload) <= 1<<10 {
				f.Add(payload)
			}
		}
	}
	for _, seed := range append(strings.Fields(gobGetDocCall), gobContentReply) {
		payload, err := hex.DecodeString(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	targets := wireSamples()
	f.Fuzz(func(t *testing.T, data []byte) {
		peer := HandlerFunc(func(string, []byte) ([]byte, error) { return data, nil })
		for _, have := range []uint64{0, 7} {
			if root, tag, err := (DBClient{C: Loopback{H: peer}}).GetKeywordTree(have); err == nil && root == nil && (have == 0 || tag != have) {
				t.Fatalf("asked with tag %d: no tree, no error, tag %d", have, tag)
			}
		}
		// TotalAlloc is the process's, and reading it stops the world: one
		// bracket holds every target's decode, and only a total over one
		// target's limit is looked at target by target, each the least of
		// four counts.
		allocated := func(decode func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decode()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		limit := payloadAllocRatio*uint64(len(data)) + 4<<10
		if allocated(func() {
			for _, s := range targets {
				_ = decodePayload(data, s.target()) // the bytes are all this reads
			}
		}) > limit {
			for _, s := range targets {
				least := uint64(math.MaxUint64)
				for range 4 {
					least = min(least, allocated(func() { _ = decodePayload(data, s.target()) }))
				}
				if least > limit {
					t.Fatalf("decoding %d bytes into %T allocated %d bytes, limit %d", len(data), s.target(), least, limit)
				}
			}
		}
		for _, s := range targets {
			v := s.target()
			if decodePayload(data, v) != nil {
				continue
			}
			again, err := appendPayload(nil, v)
			if err != nil {
				t.Fatalf("%T decoded from %x does not encode: %v", v, data, err)
			}
			w := s.target()
			if err := decodePayload(again, w); err != nil {
				t.Fatalf("%T re-encoded as %x does not decode: %v", v, again, err)
			}
			if twice, _ := appendPayload(nil, w); !bytes.Equal(twice, again) {
				t.Fatalf("%T re-encoded as %x, then as %x", v, again, twice)
			}
		}
	})
}

// FuzzGobDecodeDifferential holds the payload codec to encoding/gob,
// the format the persisted images keep, over whatever gob decodes: a
// fresh gob decoder reads the input into the target-th of the db.* wire
// types and the kind probe, and a value it yields encodes to the same
// payload as a gob round trip of it, which decodes and re-encodes to
// those bytes. Payload bytes are compared, not values, so a NaN that
// gob carried counts as carried. A value nested past maxNesting is
// refused by the codec and skipped. Seeds: the gob encoding of every
// sample value of at most 1 KB, into every target, cut by a byte and in
// half, and the gob payloads of the wire script before the codec.
func FuzzGobDecodeDifferential(f *testing.F) {
	samples := wireSamples()
	for _, s := range samples {
		for _, v := range s.values {
			payload := gobBytes(f, v)
			if len(payload) > 1<<10 {
				continue
			}
			for target := range samples {
				f.Add(payload, uint8(target))
			}
			f.Add(payload[:len(payload)-1], uint8(len(payload)%len(samples)))
			f.Add(payload[:len(payload)/2], uint8(len(payload)%len(samples)))
		}
	}
	for _, seed := range append(strings.Fields(gobGetDocCall), gobContentReply) {
		payload, err := hex.DecodeString(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, uint8(len(payload)%len(samples)))
	}
	f.Fuzz(func(t *testing.T, data []byte, target uint8) {
		s := samples[int(target)%len(samples)]
		v := s.target()
		if gob.NewDecoder(bytes.NewReader(data)).Decode(v) != nil {
			return
		}
		payload, err := appendPayload(nil, v)
		if errors.Is(err, errNesting) {
			return
		}
		if err != nil {
			t.Fatalf("%T decoded by gob from %x does not encode: %v", v, data, err)
		}
		want := s.target()
		gobRoundTrip(t, v, want)
		if carried, _ := appendPayload(nil, want); !bytes.Equal(carried, payload) {
			t.Fatalf("%T decoded by gob from %x encodes to %x, its gob round trip to %x", v, data, payload, carried)
		}
		got := s.target()
		if err := decodePayload(payload, got); err != nil {
			t.Fatalf("%T payload %x does not decode: %v", v, payload, err)
		}
		if again, _ := appendPayload(nil, got); !bytes.Equal(again, payload) {
			t.Fatalf("%T payload %x decodes to a value that encodes to %x", v, payload, again)
		}
	})
}

// payloadAllocRatio bounds what decoding allocates per input byte: a
// count is held to the bytes left at the least each element takes on
// the wire, so what a payload can claim is what it could hold.
const payloadAllocRatio = 32

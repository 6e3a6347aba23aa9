package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"slices"
	"testing"

	"mits/internal/mediastore"
	"mits/internal/transport/wiretest"
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

// FuzzGobDecodeDifferential throws arbitrary bytes at the primed decoder
// of every db.* wire type, next to a fresh gob decoder per message: the
// two must agree on whether the payload decodes, and on the value when
// it does. The codec pools are the process's, so each input meets what
// the inputs before it left in them. Seeds: every golden payload, whole
// and truncated, the shapes the splitter has to tell apart, a prefix
// padded with unused definitions, and the GetKeywordTree replies a peer
// can send (unchanged, under the tag asked about or another; a tree
// under a tag or under none) for the asking side, which every input also
// meets as a reply: it gets a tree, or "unchanged" under the tag it
// sent, or an error — never neither.
func FuzzGobDecodeDifferential(f *testing.F) {
	if wireErr != nil {
		f.Fatal(wireErr)
	}
	samples := wireSamples()
	padded := false
	// db.GetContent's reply is no longer gob; what it used to be still seeds.
	was, err := hex.DecodeString(gobContentReply)
	if err != nil {
		f.Fatal(err)
	}
	for _, call := range append(slices.Clone(wire.Calls), wiretest.Exchange{Resp: was}) {
		for _, payload := range [][]byte{call.Req, call.Resp} {
			defs, value, ok := splitGob(payload)
			if !ok {
				continue
			}
			for target := range samples {
				f.Add(payload, uint8(target))
			}
			for _, shape := range [][]byte{
				payload[:len(payload)-1], payload[:len(payload)/2],
				value,                                  // a value message with no prefix
				defs,                                   // a prefix with no value
				append(bytes.Clone(payload), value...), // two value messages
				append(bytes.Clone(payload), defs...),  // a definition smuggled after the value
				append(bytes.Clone(defs), payload...),  // every definition twice
			} {
				f.Add(shape, uint8(len(payload)%len(samples)))
			}
			if len(defs) > 0 && !padded {
				padded = true // one is enough: a prefix padded past its bound runs to 4 KB
				f.Add(padPrefix(f, defs, value), uint8(len(payload)%len(samples)))
			}
		}
	}
	tree := &mediastore.KeywordNode{Children: []*mediastore.KeywordNode{{Name: "Arts", Docs: []string{"a.doc"}}}}
	for _, reply := range []keywordTreeResp{{}, {Tag: 7}, {Tag: 8}, {Root: tree}, {Tag: 7, Root: tree}} {
		payload, err := gobEncode(reply)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, uint8(0)) // as the answer to a caller holding nothing
		f.Add(payload, uint8(7)) // and to one holding tag 7
		f.Add(payload[:len(payload)-2], uint8(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, target uint8) {
		peer := HandlerFunc(func(string, []byte) ([]byte, error) { return data, nil })
		have := uint64(target)
		if root, tag, err := (DBClient{C: Loopback{H: peer}}).GetKeywordTree(have); err == nil && root == nil && (have == 0 || tag != have) {
			t.Fatalf("asked with tag %d: no tree, no error, tag %d", have, tag)
		}
		s := samples[int(target)%len(samples)]
		primed, fresh := s.target(), s.target()
		perr, ferr := gobDecode(data, primed), freshDecode(data, fresh)
		if (perr == nil) != (ferr == nil) {
			t.Fatalf("primed decode into %T says %v, fresh decode says %v", primed, perr, ferr)
		}
		if perr == nil && !reflect.DeepEqual(primed, fresh) {
			t.Fatalf("primed decode gave %+v, fresh decode %+v", primed, fresh)
		}
	})
}

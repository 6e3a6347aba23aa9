package transport

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"mits/internal/cache"
	"mits/internal/mediastore"
)

// streamStore builds a store whose content spans several default-size
// chunks, so the chunk loop actually loops.
func streamStore(t *testing.T, size int) *mediastore.Store {
	t.Helper()
	s := mediastore.New()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.PutContent("store/big.mpg", "MPEG", data, "video", "atm/demo"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestContentChunkCodecRoundTrip pins the hand-rolled binary layout:
// every field survives encode/decode, with and without keywords.
func TestContentChunkCodecRoundTrip(t *testing.T) {
	for _, c := range []*ContentChunk{
		{Ref: "store/v.mpg", Coding: "MPEG", Index: 0, Offset: 0, Total: 7, Data: []byte("0123456"), Last: true, Keywords: []string{"video", "atm"}},
		{Ref: "store/v.mpg", Coding: "MPEG", Index: 2, Offset: 512, Total: 1024, Data: bytes.Repeat([]byte("x"), 256)},
		{Ref: "r", Coding: "", Index: 0, Offset: 0, Total: 0, Last: true}, // zero-length terminal chunk
	} {
		buf, err := AppendContentChunk(nil, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeContentChunk(buf)
		if err != nil {
			t.Fatalf("decode %q: %v", c.Ref, err)
		}
		if got.Ref != c.Ref || got.Coding != c.Coding || got.Index != c.Index ||
			got.Offset != c.Offset || got.Total != c.Total || got.Last != c.Last ||
			!bytes.Equal(got.Data, c.Data) || len(got.Keywords) != len(c.Keywords) {
			t.Fatalf("round trip mangled chunk:\n%+v\n%+v", c, got)
		}
	}
}

// TestContentChunkDecodeRejectsMalformed walks the truncation grid and
// the invariant violations a hostile or corrupted peer could send.
func TestContentChunkDecodeRejectsMalformed(t *testing.T) {
	good, err := AppendContentChunk(nil, &ContentChunk{
		Ref: "store/v.mpg", Coding: "MPEG", Offset: 0, Total: 5,
		Data: []byte("01234"), Last: true, Keywords: []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeContentChunk(good); err != nil {
		t.Fatalf("control chunk rejected: %v", err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := DecodeContentChunk(good[:n]); err == nil {
			t.Fatalf("truncated chunk of %d/%d bytes decoded", n, len(good))
		}
	}
	// Data running past Total.
	bad, _ := AppendContentChunk(nil, &ContentChunk{Ref: "r", Total: 10, Offset: 8, Data: []byte("abc"), Last: false})
	if _, err := DecodeContentChunk(bad); err == nil {
		t.Fatal("chunk overrunning its total decoded")
	}
	// Last flag inconsistent with offsets.
	bad2, _ := AppendContentChunk(nil, &ContentChunk{Ref: "r", Total: 10, Offset: 0, Data: []byte("abc"), Last: true})
	if _, err := DecodeContentChunk(bad2); err == nil {
		t.Fatal("mis-flagged terminal chunk decoded")
	}
}

// TestGetContentStreamAssembles runs the real chunk loop over a
// loopback server: a 3-chunk object arrives in order, the sink sees
// sequential fragments, and the retention contract holds — a nil sink
// assembles the record, a pure consumer gets metadata only.
func TestGetContentStreamAssembles(t *testing.T) {
	const size = 2*DefaultStreamChunkBytes + 100 // 3 chunks, short tail
	store := streamStore(t, size)
	mux := NewMux()
	RegisterStore(mux, store)
	db := DBClient{C: Loopback{H: mux}}
	want, err := store.GetContent("store/big.mpg")
	if err != nil {
		t.Fatal(err)
	}

	var seen []int
	var got []byte
	rec, err := db.GetContentStream("store/big.mpg", func(p []byte) error {
		seen = append(seen, len(p))
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Data) {
		t.Fatal("streamed bytes differ from the stored object")
	}
	if rec.Data != nil {
		t.Fatalf("sink-only stream retained %d bytes, want none", len(rec.Data))
	}
	if rec.Coding != "MPEG" || len(rec.Keywords) != 2 {
		t.Fatalf("stream dropped metadata: coding=%q keywords=%v", rec.Coding, rec.Keywords)
	}
	if len(seen) != 3 || seen[0] != DefaultStreamChunkBytes || seen[2] != 100 {
		t.Fatalf("chunk sizes %v, want [%d %d 100]", seen, DefaultStreamChunkBytes, DefaultStreamChunkBytes)
	}

	assembled, err := db.GetContentStream("store/big.mpg", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(assembled.Data, want.Data) {
		t.Fatal("nil-sink stream did not assemble the object")
	}
}

// TestGetContentStreamCacheAssembleThenAdmit: the first stream fills
// the cache with the whole object (never a partial), the second is
// served locally — zero upstream chunks — and still replays
// chunk-sized views to its sink. GetContent shares the same entry.
func TestGetContentStreamCacheAssembleThenAdmit(t *testing.T) {
	const size = DefaultStreamChunkBytes + 50
	store := streamStore(t, size)
	mux := NewMux()
	RegisterStore(mux, store)
	var upstream atomic.Int64
	counted := HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		if method == MethodGetContentStream {
			upstream.Add(1)
		}
		return mux.Handle(method, payload)
	})
	db := DBClient{C: Loopback{H: counted}, ContentCache: cache.New("t-stream-db", 1<<22)}

	first, err := db.GetContentStream("store/big.mpg", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := upstream.Load(); n != 2 {
		t.Fatalf("first stream issued %d chunk calls, want 2", n)
	}

	var replayed []int
	second, err := db.GetContentStream("store/big.mpg", func(p []byte) error {
		replayed = append(replayed, len(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := upstream.Load(); n != 2 {
		t.Fatalf("cache hit went upstream (%d chunk calls total)", n)
	}
	if len(replayed) != 2 || replayed[0] != DefaultStreamChunkBytes || replayed[1] != 50 {
		t.Fatalf("hit replayed chunk sizes %v", replayed)
	}
	if &first.Data[0] != &second.Data[0] {
		t.Fatal("cache hit did not share the assembled record")
	}
	viaGet, err := db.GetContent("store/big.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if &viaGet.Data[0] != &first.Data[0] {
		t.Fatal("GetContent missed the stream-admitted cache entry")
	}
}

// TestGetContentStreamChecksInvariants: a server answering with the
// wrong offset (a republish race, a buggy proxy) is caught by the
// client's sequence checks, not silently assembled into garbage.
func TestGetContentStreamChecksInvariants(t *testing.T) {
	store := streamStore(t, 3*DefaultStreamChunkBytes)
	mux := NewMux()
	RegisterStore(mux, store)
	evil := HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		out, err := mux.Handle(method, payload)
		if err != nil || method != MethodGetContentStream {
			return out, err
		}
		ck, derr := DecodeContentChunk(out)
		if derr != nil {
			return nil, derr
		}
		if ck.Index == 1 { // corrupt the middle chunk's offset
			ck.Offset += 7
			ck.Index = 2
			return AppendContentChunk(nil, ck)
		}
		return out, nil
	})
	db := DBClient{C: Loopback{H: evil}}
	if _, err := db.GetContentStream("store/big.mpg", nil); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("mis-sequenced stream returned %v, want ErrBadChunk", err)
	}
}

// TestGetContentStreamHostileTotal: the total in a chunk header is the
// peer's word. A broken or hostile peer claiming a 4 EB object must cost
// the client a bounded reservation and end in ErrBadChunk, not a
// makeslice panic or an out-of-memory kill: a 7-byte non-final chunk is
// refused at once (a non-terminal chunk carries exactly the requested
// bytes), and a full-size one gets one frame's worth reserved before the
// repeated chunk breaks sequence.
func TestGetContentStreamHostileTotal(t *testing.T) {
	for _, data := range [][]byte{[]byte("7 bytes"), make([]byte, DefaultStreamChunkBytes)} {
		lie := mustChunk(&ContentChunk{Ref: "store/big.mpg", Coding: "MPEG", Total: 1 << 62, Data: data})
		peer := HandlerFunc(func(string, []byte) ([]byte, error) { return lie, nil })
		db := DBClient{C: Loopback{H: peer}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := db.GetContentStream("store/big.mpg", nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadChunk) {
			t.Fatalf("stream from a lying peer returned %v, want ErrBadChunk", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*MaxFrame {
			t.Fatalf("lying peer made the client allocate %d bytes, want at most one frame's reservation", grew)
		}
	}
}

// TestGetContentStreamNotFound keeps error semantics aligned with
// GetContent: a dangling ref fails with the remote error, and a
// failed stream is not admitted to the cache.
func TestGetContentStreamNotFound(t *testing.T) {
	store := streamStore(t, 10)
	mux := NewMux()
	RegisterStore(mux, store)
	db := DBClient{C: Loopback{H: mux}, ContentCache: cache.New("t-stream-miss", 1<<20)}
	if _, err := db.GetContentStream("store/nope", nil); err == nil {
		t.Fatal("stream of a dangling ref succeeded")
	}
	// The ref must stay fetchable once published (no cached error).
	if err := store.PutContent("store/nope", "MPEG", []byte("now-here")); err != nil {
		t.Fatal(err)
	}
	rec, err := db.GetContentStream("store/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Data) != "now-here" {
		t.Fatalf("post-publish stream returned %q", rec.Data)
	}
}

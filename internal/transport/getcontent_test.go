package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mits/internal/cache"
	"mits/internal/lint/leaktest"
	"mits/internal/mediastore"
	"mits/internal/obs"
)

// db.GetContent answers with the whole object as one terminal chunk
// (DESIGN §10): what a hostile peer can do with that reply, who owns the
// record that comes out of it, and that the edge's cache hit says the
// same bytes as the store behind it.

// TestChunkKeywordCountClamped: the keyword count is the peer's word and
// sized a make before a single keyword was read — a 29-byte chunk cost
// 1 MB per decode. It is refused as truncated unless the payload could
// hold that many (two bytes each, at least), and the most a payload can
// hold still decodes. TotalAlloc is process-wide, so the cost is the
// least delta over several tries: other goroutines only add bytes, while
// the 1 MB make would land in every one.
func TestChunkKeywordCountClamped(t *testing.T) {
	hostile := mustChunk(&ContentChunk{Ref: "r", Last: true, Keywords: []string{"k"}})
	hostile = hostile[:2+4+8+8+2+1+2+2] // header, ref, empty coding, the count
	binary.BigEndian.PutUint16(hostile[len(hostile)-2:], 0xFFFF)
	least := ^uint64(0)
	for try := 0; try < 20; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeContentChunk(hostile)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadChunk) {
			t.Fatalf("a chunk claiming 65535 keywords in %d bytes decoded: %v", len(hostile), err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<10 {
		t.Errorf("refusing a %d-byte chunk allocated %d bytes", len(hostile), least)
	}
	// The boundary: 300 empty keywords are 600 bytes of lengths, and the
	// count is good; one more than the bytes can hold is not.
	full := mustChunk(&ContentChunk{Ref: "r", Last: true, Keywords: make([]string, 300)})
	if ck, err := DecodeContentChunk(full); err != nil || len(ck.Keywords) != 300 {
		t.Fatalf("300 empty keywords: %d decoded, %v", len(ck.Keywords), err)
	}
	over := bytes.Clone(full)
	binary.BigEndian.PutUint16(over[2+4+8+8+2+1+2:], 303) // 600 + 4 bytes follow the count
	if _, err := DecodeContentChunk(over); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("303 keywords in 604 bytes: %v", err)
	}
}

// contentScript is a scripted peer on a real socket: it speaks the
// frame protocol correctly and answers every db.GetContent with whatever
// reply the test has loaded, or with half a frame and a hang-up.
type contentScript struct {
	mu    sync.Mutex
	reply []byte
	cut   bool // send half the response frame, then close the connection
}

func (s *contentScript) load(reply []byte, cut bool) {
	s.mu.Lock()
	s.reply, s.cut = reply, cut
	s.mu.Unlock()
}

func (s *contentScript) serve(conn net.Conn) {
	for {
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		releaseFrame(req) // id and corr outlive the payload
		s.mu.Lock()
		reply, cut := s.reply, s.cut
		s.mu.Unlock()
		resp := &frame{kind: kindResponse, id: req.id, corr: req.corr, payload: reply}
		if !cut {
			if writeFrame(conn, resp) != nil {
				return
			}
			continue
		}
		body := resp.marshal()
		wire := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body[:len(body)/2]...)
		conn.Write(wire)
		conn.Close()
		return
	}
}

// TestGetContentHostilePeer: a peer answers db.GetContent with every
// reply that is a well-formed chunk but not the whole of the object
// asked for, with the gob ContentRecord this route used to send, and
// with damaged bytes. Each call comes back inside its deadline with
// ErrBadChunk (a hang-up mid-frame: the connection's error), holding no
// pooled buffer and having put nothing in the cache; and the good answer
// that follows is served.
func TestGetContentHostilePeer(t *testing.T) {
	leaktest.Check(t)
	const ref = "store/v.mpg"
	data := bytes.Repeat([]byte("v"), DefaultStreamChunkBytes)
	good := ContentChunk{Ref: ref, Coding: "MPEG", Total: uint64(len(data)), Last: true, Keywords: []string{"video"}, Data: data}
	with := func(edit func(*ContentChunk)) []byte {
		ck := good
		edit(&ck)
		return mustChunk(&ck)
	}
	oldGob, err := hex.DecodeString(gobContentReply)
	if err != nil {
		t.Fatal(err)
	}
	script := []struct {
		name  string
		reply []byte
		cut   bool
	}{
		{"non-terminal chunk", with(func(ck *ContentChunk) { ck.Total *= 2; ck.Last = false }), false},
		{"wrong ref", with(func(ck *ContentChunk) { ck.Ref = "store/other.mpg" }), false},
		{"offset not 0", with(func(ck *ContentChunk) { ck.Offset = 7; ck.Total += 7 }), false},
		{"index not 0", with(func(ck *ContentChunk) { ck.Index = 1 }), false},
		{"total not the bytes sent", func() []byte {
			b := mustChunk(&good)
			binary.BigEndian.PutUint64(b[14:], good.Total+1) // and still flagged last
			return b
		}(), false},
		{"the old gob ContentRecord", oldGob, false},
		{"chunk cut short", mustChunk(&good)[:len(data)/2], false},
		{"frame cut short, then a hang-up", mustChunk(&good), true},
	}

	var audit atomic.Int64
	bufAudit.Store(&audit)
	defer bufAudit.Store(nil)
	peer := new(contentScript)
	pool, err := DialTCPPool(listenScripted(t, peer.serve), 2)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 2 * time.Second
	for _, c := range pool.stripes {
		c.Timeout = deadline
	}
	contents := cache.New("t-hostile-content", 1<<20)
	db := DBClient{C: pool, ContentCache: contents}
	held := int64(len(pool.stripes)) // each stripe's write scratch, a dead stripe's too, until Close
	waitFor(t, func() bool { return audit.Load() == held })

	for _, step := range script {
		peer.load(step.reply, step.cut)
		start := time.Now()
		rec, err := db.GetContent(ref)
		if took := time.Since(start); took >= deadline {
			t.Errorf("%s: the call took %v", step.name, took)
		}
		switch {
		case err == nil:
			t.Errorf("%s: accepted as %q, %d bytes", step.name, rec.Ref, len(rec.Data))
		case step.cut && !errors.Is(err, ErrPeerClosed):
			t.Errorf("%s: %v, want ErrPeerClosed", step.name, err)
		case !step.cut && !errors.Is(err, ErrBadChunk):
			t.Errorf("%s: %v, want ErrBadChunk", step.name, err)
		}
		if n := contents.Len(); n != 0 {
			t.Errorf("%s: %d entries admitted to the cache", step.name, n)
		}
		waitFor(t, func() bool { return audit.Load() == held })
	}

	peer.load(mustChunk(&good), false)
	rec, err := db.GetContent(ref)
	if err != nil || rec.Ref != ref || rec.Coding != "MPEG" || !slices.Equal(rec.Keywords, good.Keywords) || !bytes.Equal(rec.Data, data) {
		t.Fatalf("the good answer after them: %+v, %v", rec, err)
	}
	if hit, err := db.GetContent(ref); err != nil || hit != rec || contents.Len() != 1 {
		t.Errorf("the good answer was not cached: %v, %d entries", err, contents.Len())
	}
	if err := pool.Close(); err != nil {
		t.Logf("pool close: %v", err)
	}
	waitFor(t, func() bool { return audit.Load() == 0 })
}

// scribbler hands every pooled response on with a release that first
// overwrites it, so anything still reading the buffer after giving it
// back reads garbage (and, under the race detector, races the write).
type scribbler struct {
	Client
	scribbled atomic.Int64
}

func (s *scribbler) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	out, release, err := CallInTracePooled(s.Client, sc, method, payload)
	if err != nil || release == nil {
		return out, release, err
	}
	return out, func() {
		for i := range out {
			out[i] = 0xDD
		}
		s.scribbled.Add(1)
		release()
	}, nil
}

// TestGetContentRecordOwnsItsMemory: the record GetContent returns, and
// the cache then shares, references nothing of the pooled response it
// was read from — eight callers fetch through one cache over a pool
// whose every released buffer is scribbled over and reused by the next
// call, and every record still reads as the store's object.
func TestGetContentRecordOwnsItsMemory(t *testing.T) {
	leaktest.Check(t)
	const objects, callers = 6, 8
	store := mediastore.New()
	want := make(map[string]*mediastore.ContentRecord)
	for i := 0; i < objects; i++ {
		rec := &mediastore.ContentRecord{
			Ref: fmt.Sprintf("store/o%d.mpg", i), Coding: fmt.Sprintf("MPEG-%d", i),
			Keywords: []string{"video", fmt.Sprintf("atm/demo-%d", i)},
			Data:     bytes.Repeat([]byte{byte('a' + i)}, DefaultStreamChunkBytes+i),
		}
		if err := store.PutContent(rec.Ref, rec.Coding, rec.Data, rec.Keywords...); err != nil {
			t.Fatal(err)
		}
		want[rec.Ref] = rec
	}
	mux := NewMux()
	RegisterStore(mux, store)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := DialTCPPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, carrier := range map[string]Client{"loopback": Loopback{H: mux}, "pool": pool} {
		sc := &scribbler{Client: carrier}
		db := DBClient{C: sc, ContentCache: cache.New("t-owns-"+name, 1<<22)}
		got := make([][]*mediastore.ContentRecord, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					for i := 0; i < objects; i++ {
						rec, err := db.GetContent(fmt.Sprintf("store/o%d.mpg", (i+c)%objects))
						if err != nil {
							t.Error(err)
							return
						}
						got[c] = append(got[c], rec)
					}
				}
			}()
		}
		wg.Wait()
		if n := sc.scribbled.Load(); n != objects {
			t.Errorf("%s: %d responses released for %d objects behind a singleflight cache", name, n, objects)
		}
		shared := make(map[string]*mediastore.ContentRecord)
		for _, recs := range got {
			for _, rec := range recs {
				w := want[rec.Ref]
				if w == nil || rec.Coding != w.Coding || !slices.Equal(rec.Keywords, w.Keywords) || !bytes.Equal(rec.Data, w.Data) {
					t.Fatalf("%s: %q came back as coding %q, keywords %v, %d bytes starting %q", name, rec.Ref, rec.Coding, rec.Keywords, len(rec.Data), rec.Data[:4])
				}
				if first := shared[rec.Ref]; first != nil && first != rec {
					t.Fatalf("%s: two hits on %q returned different records", name, rec.Ref)
				}
				shared[rec.Ref] = rec
			}
		}
		// No cache: every call releases, and every record is its own.
		bare := DBClient{C: sc}
		a, err := bare.GetContent("store/o0.mpg")
		if err != nil {
			t.Fatal(err)
		}
		b, err := bare.GetContent("store/o1.mpg") // reuses the buffer a was read from
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []*mediastore.ContentRecord{a, b} {
			if w := want[rec.Ref]; rec.Coding != w.Coding || !slices.Equal(rec.Keywords, w.Keywords) || !bytes.Equal(rec.Data, w.Data) {
				t.Fatalf("%s, uncached: %q mangled after its buffer was reused", name, rec.Ref)
			}
		}
	}
	if err := pool.Close(); err != nil {
		t.Logf("pool close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

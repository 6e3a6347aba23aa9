package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
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

const streamRef = "store/big.mpg"

// sequentialStream is the reference the windowed loop is compared
// against: one chunk call at a time straight through the carrier,
// recording the bytes, the chunk boundaries and the metadata.
func sequentialStream(t *testing.T, c Client, ref string) (data []byte, bounds []int, coding string, keywords []string) {
	t.Helper()
	for off := uint64(0); ; {
		out, err := CallInTrace(c, obs.SpanContext{}, MethodGetContentStream, mustStreamReq(ref, off, DefaultStreamChunkBytes))
		if err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeContentChunk(out)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, ck.Data...)
		bounds = append(bounds, len(ck.Data))
		off += uint64(len(ck.Data))
		if ck.Last {
			return data, bounds, ck.Coding, ck.Keywords
		}
	}
}

// lateEvenServer is a scripted peer with full control of wire order:
// it answers chunk requests off mux, but holds every even chunk k >= 2
// that is not the stream's last until it has answered chunk k+1, so
// the responses of a windowed stream arrive out of order. A sequential
// client would deadlock against it (k+1 is never asked for before k
// arrives), which is the point: only read-ahead gets through.
type lateEvenServer struct {
	mux       *Mux
	chunks    uint32 // chunks in the object
	reordered atomic.Int64
}

func (s *lateEvenServer) listen(t *testing.T) string { return listenScripted(t, s.serve) }

// listenScripted serves every connection to a fresh loopback listener
// with serve, a scripted peer's side of the wire, and tears all of it
// down with the test.
func listenScripted(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return l.Addr().String()
}

func (s *lateEvenServer) serve(conn net.Conn) {
	var held *frame
	answer := func(req *frame) error {
		out, err := s.mux.Handle(req.method, req.payload)
		resp := &frame{kind: kindResponse, id: req.id, corr: req.corr, payload: out}
		if err != nil {
			resp.errText, resp.payload = err.Error(), nil
		}
		return writeFrame(conn, resp)
	}
	for {
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		_, off, _, err := DecodeGetContentStream(req.payload)
		if err != nil {
			return
		}
		idx := uint32(off / DefaultStreamChunkBytes)
		if idx >= 2 && idx%2 == 0 && idx+1 < s.chunks {
			held = req
			continue
		}
		if answer(req) != nil {
			return
		}
		if held != nil {
			s.reordered.Add(1)
			if answer(held) != nil {
				return
			}
			held = nil
		}
	}
}

// TestStreamOrderAndEquivalence: over every carrier, and for the
// window-capable ones also against a peer whose responses arrive out
// of order, a stream delivers the same bytes in the same chunk
// boundaries as one sequential call per chunk, and keeps the three
// retention contracts: sink-only returns metadata only, a nil sink a
// private assembled record, a cache the whole shared record.
func TestStreamOrderAndEquivalence(t *testing.T) {
	leaktest.Check(t)
	const c = DefaultStreamChunkBytes
	for _, size := range []int{0, 1, c - 1, c, c + 1, 3 * c, 58*c + 7} {
		mux := NewMux()
		if size > 0 {
			RegisterStore(mux, streamStore(t, size))
		} else {
			// The store refuses empty content; an empty object is still
			// a legal stream (one empty terminal chunk).
			mux.RegisterPooled(MethodGetContentStream, func(obs.SpanContext, string, []byte) ([]byte, func(), error) {
				return mustChunk(&ContentChunk{Ref: streamRef, Coding: "MPEG", Last: true, Keywords: []string{"video"}}), nil, nil
			})
		}
		wantData, wantBounds, wantCoding, wantKeywords := sequentialStream(t, Loopback{H: mux}, streamRef)
		if len(wantData) != size {
			t.Fatalf("reference stream of %d bytes returned %d", size, len(wantData))
		}
		srv := NewTCPServer(mux)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		late := &lateEvenServer{mux: mux, chunks: uint32(len(wantBounds))}
		lateAddr := late.listen(t)

		pool := func(addr string, n int) func() (Client, error) {
			return func() (Client, error) { return DialTCPPool(addr, n) }
		}
		carriers := []struct {
			name string
			dial func() (Client, error)
		}{
			{"tcp", func() (Client, error) { return DialTCP(addr) }},
			{"pool1", pool(addr, 1)},
			{"pool4", pool(addr, 4)},
			{"loopback", func() (Client, error) { return Loopback{H: mux}, nil }},
			{"retry-over-pool", func() (Client, error) {
				return NewRetryClient(pool(addr, 4), RetryPolicy{Attempts: 3}, 1), nil
			}},
			{"tcp/late-even", func() (Client, error) { return DialTCP(lateAddr) }},
			{"pool1/late-even", pool(lateAddr, 1)},
			{"pool4/late-even", pool(lateAddr, 4)},
		}
		for _, carrier := range carriers {
			t.Run(fmt.Sprintf("%d/%s", size, carrier.name), func(t *testing.T) {
				cl, err := carrier.dial()
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				db := DBClient{C: cl}
				collect := func(db DBClient) (*mediastore.ContentRecord, []byte, []int) {
					var got []byte
					var bounds []int
					rec, err := db.GetContentStream(streamRef, func(p []byte) error {
						got = append(got, p...)
						bounds = append(bounds, len(p))
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, wantData) || !slices.Equal(bounds, wantBounds) {
						t.Fatalf("sink saw %d bytes in chunks %v, sequential loop %d in %v", len(got), bounds, len(wantData), wantBounds)
					}
					if rec.Ref != streamRef || rec.Coding != wantCoding || !slices.Equal(rec.Keywords, wantKeywords) {
						t.Fatalf("metadata %q %q %v, want %q %v", rec.Ref, rec.Coding, rec.Keywords, wantCoding, wantKeywords)
					}
					return rec, got, bounds
				}

				// Sink, no cache: metadata only.
				if rec, _, _ := collect(db); rec.Data != nil {
					t.Fatalf("sink-only stream retained %d bytes", len(rec.Data))
				}
				// Nil sink: a private assembled record per call.
				a, err := db.GetContentStream(streamRef, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := db.GetContentStream(streamRef, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Data, wantData) || !bytes.Equal(b.Data, wantData) {
					t.Fatal("nil-sink stream did not assemble the object")
				}
				if size > 0 && &a.Data[0] == &b.Data[0] {
					t.Fatal("two nil-sink streams share one buffer")
				}
				// Cache: the miss streams to the sink AND admits the whole
				// object; the hit shares that record.
				cached := db
				cached.ContentCache = cache.New(fmt.Sprintf("t-window-%d-%s", size, carrier.name), 1<<23)
				miss, _, _ := collect(cached)
				if !bytes.Equal(miss.Data, wantData) {
					t.Fatal("cache admitted a partial object")
				}
				hit, _, _ := collect(cached)
				if size > 0 && &hit.Data[0] != &miss.Data[0] {
					t.Fatal("cache hit did not share the admitted record")
				}
			})
		}
		if len(wantBounds) >= 4 && late.reordered.Load() == 0 {
			t.Fatalf("size %d: the late-even peer never sent a response out of order", size)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamRejectsEmptyNonTerminalChunk is the liveness regression: a
// peer answering every request with an empty non-terminal chunk at
// exactly the index and offset the client expects used to keep the
// loop spinning forever (off never advanced and every check passed).
func TestStreamRejectsEmptyNonTerminalChunk(t *testing.T) {
	var calls atomic.Uint32
	peer := HandlerFunc(func(string, []byte) ([]byte, error) {
		idx := calls.Add(1) - 1
		return mustChunk(&ContentChunk{Ref: streamRef, Coding: "MPEG", Index: idx, Total: 1 << 20}), nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := DBClient{C: Loopback{H: peer}}.GetContentStream(streamRef, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBadChunk) {
			t.Fatalf("stream of empty chunks returned %v, want ErrBadChunk", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stream of empty non-terminal chunks never returned")
	}
	// A short (non-empty) non-terminal chunk breaks the same invariant.
	short := HandlerFunc(func(string, []byte) ([]byte, error) {
		return mustChunk(&ContentChunk{Ref: streamRef, Total: 1 << 20, Data: []byte("short")}), nil
	})
	if _, err := (DBClient{C: Loopback{H: short}}).GetContentStream(streamRef, nil); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("short non-terminal chunk returned %v, want ErrBadChunk", err)
	}
}

// chunkHook serves mux with a hook around every chunk request: gate
// runs before chunk idx is served, rewrite (when it returns non-nil)
// replaces the served chunk. It passes the pooled release through, so
// buffer accounting over it stays exact.
type chunkHook struct {
	mux     *Mux
	gate    func(idx uint32)
	rewrite func(ck *ContentChunk) *ContentChunk
}

func (h *chunkHook) Handle(method string, payload []byte) ([]byte, error) {
	return h.mux.Handle(method, payload)
}

func (h *chunkHook) HandleCtxPooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	if method == MethodGetContentStream {
		if _, off, _, err := DecodeGetContentStream(payload); err == nil && h.gate != nil {
			h.gate(uint32(off / DefaultStreamChunkBytes))
		}
	}
	out, release, err := h.mux.HandleCtxPooled(sc, method, payload)
	if err != nil || method != MethodGetContentStream || h.rewrite == nil {
		return out, release, err
	}
	ck, err := DecodeContentChunk(out)
	if err != nil {
		return nil, release, err
	}
	if re := h.rewrite(ck); re != nil {
		out = mustChunk(re)
		release()
		release = nil
	}
	return out, release, nil
}

func pendingLen(c *TCPClient) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// TestStreamSettlesEveryStartedCall drives a stream into each way it
// can end with requests still in flight and checks the accounting: the
// stream returns that failure, every started call has left the pending
// map by the time it returns, every pooled buffer taken on either side
// is recycled exactly once (the audit ends at zero after both ends
// close), and no goroutine outlives the call.
func TestStreamSettlesEveryStartedCall(t *testing.T) {
	const chunks = 8
	errSink := errors.New("player stopped")
	type env struct {
		store   *mediastore.Store
		hook    *chunkHook
		pool    *ClientPool
		release chan struct{} // closed after the stream returns, opening the gate
		parked  atomic.Int32  // chunk requests waiting at the gate
	}
	// stripe finds the stripe the stream runs on once its whole window
	// is parked: started on the client, held at the server's gate.
	stripe := func(e *env) *TCPClient {
		var found *TCPClient
		waitFor(t, func() bool {
			if e.parked.Load() != streamReadAhead {
				return false
			}
			for _, c := range e.pool.stripes {
				if pendingLen(c) == streamReadAhead {
					found = c
					return true
				}
			}
			return false
		})
		return found
	}
	holdAfter := func(e *env, k uint32) {
		e.hook.gate = func(idx uint32) {
			if idx > k {
				e.parked.Add(1)
				<-e.release
			}
		}
	}
	scenarios := []struct {
		name  string
		setup func(e *env)
		sink  func(e *env, idx int) error
		check func(t *testing.T, err error)
	}{
		{
			name: "chunk corrupted mid-window",
			setup: func(e *env) {
				e.hook.rewrite = func(ck *ContentChunk) *ContentChunk {
					if ck.Index != 3 {
						return nil
					}
					ck.Offset += 7
					return ck
				}
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrBadChunk) {
					t.Fatalf("got %v, want ErrBadChunk", err)
				}
			},
		},
		{
			name:  "sink error, window still on the wire",
			setup: func(e *env) { holdAfter(e, 2) },
			sink: func(e *env, idx int) error {
				if idx == 2 {
					stripe(e) // both read-ahead calls are parked
					return errSink
				}
				return nil
			},
			check: func(t *testing.T, err error) {
				if err != errSink {
					t.Fatalf("got %v, want the sink's error", err)
				}
			},
		},
		{
			name: "sink error, window already delivered",
			sink: func(e *env, idx int) error {
				if idx == 2 {
					// Both read-ahead responses have been dispatched to
					// their calls once nothing is pending.
					waitFor(t, func() bool {
						for _, c := range e.pool.stripes {
							if pendingLen(c) != 0 {
								return false
							}
						}
						return true
					})
					return errSink
				}
				return nil
			},
			check: func(t *testing.T, err error) {
				if err != errSink {
					t.Fatalf("got %v, want the sink's error", err)
				}
			},
		},
		{
			name: "content republished mid-stream",
			sink: func(e *env, idx int) error {
				if idx == 1 {
					return e.store.PutContent(streamRef, "MPEG", make([]byte, chunks*DefaultStreamChunkBytes+5))
				}
				return nil
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrBadChunk) {
					t.Fatalf("got %v, want ErrBadChunk (total changed)", err)
				}
			},
		},
		{
			name:  "stripe killed mid-window",
			setup: func(e *env) { holdAfter(e, 2) },
			sink: func(e *env, idx int) error {
				if idx == 2 {
					return stripe(e).conn.Close()
				}
				return nil
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrPeerClosed) {
					t.Fatalf("got %v, want ErrPeerClosed", err)
				}
			},
		},
		{
			name:  "client closed mid-window",
			setup: func(e *env) { holdAfter(e, 2) },
			sink: func(e *env, idx int) error {
				if idx == 2 {
					stripe(e)
					return e.pool.Close()
				}
				return nil
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrPeerClosed) {
					t.Fatalf("got %v, want ErrPeerClosed (client closed)", err)
				}
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			leaktest.Check(t)
			var audit atomic.Int64
			bufAudit.Store(&audit)
			defer bufAudit.Store(nil)

			e := &env{store: streamStore(t, chunks*DefaultStreamChunkBytes), release: make(chan struct{})}
			mux := NewMux()
			RegisterStore(mux, e.store)
			e.hook = &chunkHook{mux: mux}
			if sc.setup != nil {
				sc.setup(e)
			}
			srv := NewTCPServer(e.hook)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if e.pool, err = DialTCPPool(addr, 2); err != nil {
				t.Fatal(err)
			}
			unknownBefore := obsUnknownCorr.Value()

			idx := 0
			_, err = DBClient{C: e.pool}.GetContentStream(streamRef, func([]byte) error {
				defer func() { idx++ }()
				if sc.sink == nil {
					return nil
				}
				return sc.sink(e, idx)
			})
			sc.check(t, err)
			for i, c := range e.pool.stripes {
				if n := pendingLen(c); n != 0 {
					t.Errorf("stripe %d still has %d pending calls after the stream returned", i, n)
				}
			}
			close(e.release)
			if sc.name == "sink error, window still on the wire" {
				// The cancelled calls' responses still arrive, match no
				// pending call, and are recycled by the reader.
				waitFor(t, func() bool { return obsUnknownCorr.Value() == unknownBefore+streamReadAhead })
			}
			if err := e.pool.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
				t.Errorf("pool close: %v", err)
			}
			if err := srv.Close(); err != nil {
				t.Errorf("server close: %v", err)
			}
			if n := audit.Load(); n != 0 {
				t.Errorf("pooled buffers out of balance by %d after both ends closed", n)
			}
		})
	}
}

// countedPooled is a PooledCtxHandler whose every response carries a
// counted release.
type countedPooled struct{ handed, released atomic.Int64 }

func (h *countedPooled) Handle(string, []byte) ([]byte, error) {
	panic("server must take the pooled path")
}

func (h *countedPooled) HandleCtxPooled(obs.SpanContext, string, []byte) ([]byte, func(), error) {
	h.handed.Add(1)
	return []byte("pooled"), func() { h.released.Add(1) }, nil
}

// TestServerReleasesPooledResponseExactlyOnce: the server calls a
// pooled response's release once the bytes are on the batch — once on
// success, once when the writer is already dead, once when the entry
// is discarded unflushed — and a wrapper that only speaks CtxHandler
// drops it without harm.
func TestServerReleasesPooledResponseExactlyOnce(t *testing.T) {
	leaktest.Check(t)
	h := &countedPooled{}
	srv := NewTCPServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := mustDial(t, addr)
	for i := 1; i <= 3; i++ {
		if out, err := CallInTrace(cli, obs.SpanContext{}, "m", nil); err != nil || string(out) != "pooled" {
			t.Fatalf("call = (%q, %v)", out, err)
		}
		// The release ran before the response was flushed.
		if got := h.released.Load(); got != int64(i) {
			t.Fatalf("after %d calls the server released %d responses", i, got)
		}
	}
	cli.Close()
	srv.Close()

	// A dead writer: the first entry's write fails (released once in
	// the flush loop), the second meets the dead flag.
	a, b := net.Pipe()
	b.Close()
	rw := newRespWriter(a, 0)
	var released [3]atomic.Int64
	entry := func(i int) respEntry {
		return respEntry{
			resp:    &frame{kind: kindResponse, payload: []byte("x")},
			req:     &frame{},
			release: func() { released[i].Add(1) },
		}
	}
	rw.enqueue(entry(0))
	rw.enqueue(entry(1))
	// An entry queued behind an active flusher and then discarded.
	rw2 := newRespWriter(a, 0)
	rw2.active = true
	rw2.enqueue(entry(2))
	rw2.close()
	rw.close()
	a.Close()
	for i := range released {
		if n := released[i].Load(); n != 1 {
			t.Errorf("entry %d released %d times, want exactly once", i, n)
		}
	}

	// A wrapper that drops the release: nothing is recycled, nothing
	// breaks.
	h2 := &countedPooled{}
	wrapped := NewTCPServer(HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		out, _, err := h2.HandleCtxPooled(obs.SpanContext{}, method, payload)
		return out, err
	}))
	addr, err = wrapped.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli = mustDial(t, addr)
	if out, err := CallInTrace(cli, obs.SpanContext{}, "m", nil); err != nil || string(out) != "pooled" {
		t.Fatalf("call through the wrapper = (%q, %v)", out, err)
	}
	cli.Close()
	wrapped.Close()
	if h2.handed.Load() != 1 || h2.released.Load() != 0 {
		t.Fatalf("wrapper: handed %d, released %d; want 1 and 0", h2.handed.Load(), h2.released.Load())
	}
}

// TestStreamChunkMetricsCountDeliveredChunks: transport_stream_chunks_total
// and the chunk-wait histogram each advance by exactly the number of
// chunks the stream delivered, over a windowed and a sequential carrier.
func TestStreamChunkMetricsCountDeliveredChunks(t *testing.T) {
	leaktest.Check(t)
	const size = 5*DefaultStreamChunkBytes + 9 // 6 chunks
	mux := NewMux()
	RegisterStore(mux, streamStore(t, size))
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := mustDial(t, addr)
	defer cli.Close()
	for _, c := range []Client{cli, Loopback{H: mux}} {
		chunks, waits := obsStreamChunks.Value(), obsStreamChunkWait.Count()
		delivered := int64(0)
		if _, err := (DBClient{C: c}).GetContentStream(streamRef, func([]byte) error { delivered++; return nil }); err != nil {
			t.Fatal(err)
		}
		if delivered != 6 {
			t.Fatalf("sink saw %d chunks, want 6", delivered)
		}
		if got := obsStreamChunks.Value() - chunks; got != delivered {
			t.Errorf("transport_stream_chunks_total advanced by %d for %d delivered chunks", got, delivered)
		}
		if got := obsStreamChunkWait.Count() - waits; got != delivered {
			t.Errorf("transport_stream_chunk_wait_ns observed %d waits for %d delivered chunks", got, delivered)
		}
	}
}

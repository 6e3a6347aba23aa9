package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mits/internal/atm"
	"mits/internal/lint/leaktest"
	"mits/internal/mediastore"
	"mits/internal/obs"
)

// writeFrame sends one length-prefixed frame, as a hand-rolled peer
// would: the tests use it to speak the wire without a TCPClient.
func writeFrame(w io.Writer, f *frame) error {
	size := f.wireSize()
	if size > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	buf := getBuf(4 + size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(size))
	buf = f.appendTo(buf)
	_, err := w.Write(buf)
	putBuf(buf)
	if err == nil {
		obsBytesTx.Add(int64(4 + size))
	}
	return err
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []*frame{
		{kind: kindRequest, id: 1, method: "db.Get_List_Doc"},
		{kind: kindRequest, id: 42, method: "m", payload: []byte("payload")},
		{kind: kindResponse, id: 42, payload: []byte{0, 1, 2}},
		{kind: kindResponse, id: 7, errText: "not found"},
	}
	for _, f := range cases {
		got, err := unmarshalFrame(f.marshal())
		if err != nil {
			t.Fatalf("unmarshal(%+v): %v", f, err)
		}
		if got.kind != f.kind || got.id != f.id || got.method != f.method || got.errText != f.errText || !bytes.Equal(got.payload, f.payload) {
			t.Errorf("round trip %+v → %+v", f, got)
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	if _, err := unmarshalFrame(nil); err == nil {
		t.Error("nil frame accepted")
	}
	if _, err := unmarshalFrame([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bad kind accepted")
	}
	f := &frame{kind: kindRequest, id: 1, method: "m", payload: []byte("x")}
	body := f.marshal()
	if _, err := unmarshalFrame(body[:len(body)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestFrameFuzzProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = unmarshalFrame(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMux(t *testing.T) {
	m := NewMux()
	m.RegisterPooled("echo", echo)
	out, err := m.Handle("echo", []byte("hi"))
	if err != nil || string(out) != "hi" {
		t.Errorf("echo: %q %v", out, err)
	}
	if _, err := m.Handle("nope", nil); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unknown method err=%v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	m.RegisterPooled("echo", echo)
}

// echo is a raw test route answering each request with its payload.
func echo(_ obs.SpanContext, _ string, p []byte) ([]byte, func(), error) { return p, nil, nil }

func testStore(t *testing.T) *mediastore.Store {
	t.Helper()
	s := mediastore.New()
	if _, err := s.PutDocument("atm-course", "ATM", "asn1", []byte("course-bytes"), "network/atm"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutContent("store/v.mpg", "MPEG", bytes.Repeat([]byte("v"), 100000)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDBOverLoopback(t *testing.T) {
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	db := DBClient{C: Loopback{H: mux}}
	exerciseDB(t, db)
}

func TestDBOverTCP(t *testing.T) {
	leaktest.Check(t)
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	exerciseDB(t, DBClient{C: client})
}

// TestPutOverWireOutlivesItsFrame: the store keeps the Data a put hands
// it, so what a put over the wire stores must be the decoder's own
// bytes, never a view of the request frame. One object and one document
// are put, then 120 more puts of other bytes of the same sizes go over
// the same connection, reusing whatever buffers the first frames came
// in; the first records must still read as what was sent.
func TestPutOverWireOutlivesItsFrame(t *testing.T) {
	leaktest.Check(t)
	const calls = 120
	fill := func(seed, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(seed*131 + i*7)
		}
		return b
	}
	for _, carrier := range []string{"loopback", "tcp"} {
		t.Run(carrier, func(t *testing.T) {
			store := mediastore.New()
			mux := NewMux()
			RegisterStore(mux, store)
			var c Client = Loopback{H: mux}
			if carrier == "tcp" {
				srv := NewTCPServer(mux)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				client, err := DialTCP(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				c = client
			}
			db := DBClient{C: c}
			content, doc := fill(1, 100_000), fill(2, 3_000)
			contentCRC, docCRC := crc32.ChecksumIEEE(content), crc32.ChecksumIEEE(doc)
			if err := db.PutContent("store/kept.mpg", "MPEG", content, "kept"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.PutDocument("kept", "Kept", "asn1", doc, "kept"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < calls; i++ {
				if err := db.PutContent(fmt.Sprintf("store/o%d.mpg", i%4), "MPEG", fill(i+3, len(content)), "other"); err != nil {
					t.Fatal(err)
				}
				if _, err := db.PutDocument(fmt.Sprintf("d%d", i%4), "Other", "asn1", fill(i+3, len(doc)), "other"); err != nil {
					t.Fatal(err)
				}
			}
			rec, err := store.GetContentBorrow("store/kept.mpg")
			if err != nil {
				t.Fatal(err)
			}
			if crc32.ChecksumIEEE(rec.Data) != contentCRC || len(rec.Keywords) != 1 || rec.Keywords[0] != "kept" {
				t.Errorf("stored content changed after %d more puts on the connection", calls)
			}
			d, err := store.GetDocument("kept")
			if err != nil {
				t.Fatal(err)
			}
			if crc32.ChecksumIEEE(d.Data) != docCRC || len(d.Keywords) != 1 || d.Keywords[0] != "kept" {
				t.Errorf("stored document changed after %d more puts on the connection", calls)
			}
		})
	}
}

func exerciseDB(t *testing.T, db DBClient) {
	t.Helper()
	names, err := db.GetListDoc()
	if err != nil || len(names) != 1 || names[0] != "atm-course" {
		t.Fatalf("GetListDoc=%v err=%v", names, err)
	}
	rec, err := db.GetSelectedDoc("atm-course", 0)
	if err != nil || string(rec.Data) != "course-bytes" {
		t.Fatalf("GetSelectedDoc=%+v err=%v", rec, err)
	}
	same, err := db.GetSelectedDoc("atm-course", rec.Digest)
	if err != nil || same.Data != nil || same.Keywords != nil || same.Digest != rec.Digest ||
		same.Title != rec.Title || same.Encoding != rec.Encoding || same.Version != rec.Version {
		t.Fatalf("GetSelectedDoc(current digest)=%+v err=%v, want the record without Data", same, err)
	}
	if stale, err := db.GetSelectedDoc("atm-course", rec.Digest^1); err != nil || string(stale.Data) != "course-bytes" {
		t.Fatalf("GetSelectedDoc(stale digest)=%+v err=%v, want the whole record", stale, err)
	}
	if _, err := db.GetSelectedDoc("missing", 0); err == nil {
		t.Error("missing doc fetch succeeded")
	} else if !strings.Contains(err.Error(), "not found") {
		t.Errorf("error lost fidelity across the wire: %v", err)
	}
	tree, tag, err := db.GetKeywordTree(0)
	if err != nil || len(tree.Children) == 0 || tag != tree.Digest() {
		t.Fatalf("GetKeywordTree=%+v err=%v", tree, err)
	}
	byKw, err := db.GetDocByKeyword("network")
	if err != nil || len(byKw) != 1 {
		t.Fatalf("GetDocByKeyword=%v err=%v", byKw, err)
	}
	content, err := db.GetContent("store/v.mpg")
	if err != nil || len(content.Data) != 100000 {
		t.Fatalf("GetContent len=%d err=%v", len(content.Data), err)
	}
	// Author/producer round trip.
	v, err := db.PutDocument("new-course", "New", "asn1", []byte("d"), "misc")
	if err != nil || v != 1 {
		t.Fatalf("PutDocument v=%d err=%v", v, err)
	}
	if err := db.PutContent("store/new.wav", "WAV", []byte("audio")); err != nil {
		t.Fatal(err)
	}
	got, err := db.FetchContent("store/new.wav")
	if err != nil || string(got) != "audio" {
		t.Fatalf("FetchContent=%q err=%v", got, err)
	}
	if _, err := db.FetchContent("store/zzz"); err == nil {
		t.Error("FetchContent of missing ref succeeded")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	leaktest.Check(t)
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialTCP(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			db := DBClient{C: c}
			for j := 0; j < 20; j++ {
				if _, err := db.GetSelectedDoc("atm-course", 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	leaktest.Check(t)
	mux := NewMux()
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := CallInTrace(client, obs.SpanContext{}, "x", nil); err == nil {
		t.Error("call on closed server succeeded")
	}
	client.Close()
}

// atmTestNet builds a user host and a server host joined by one switch.
func atmTestNet(t *testing.T) (*atm.Network, *atm.Host, *atm.Host) {
	t.Helper()
	n := atm.New()
	user := n.AddHost("user")
	db := n.AddHost("db")
	sw := n.AddSwitch("sw")
	n.Connect(user, sw, 155e6, 500*time.Microsecond)
	n.Connect(sw, db, 155e6, 500*time.Microsecond)
	return n, user, db
}

func TestDBOverATM(t *testing.T) {
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	n, user, db := atmTestNet(t)
	sess, err := OpenATMSession(n, user, db, mux, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Small call.
	payload, err := sess.CallOver(MethodListDocs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := decodePayload(payload, &names); err != nil || len(names) != 1 {
		t.Fatalf("names=%v err=%v", names, err)
	}

	// Large content fetch: 100 kB crosses the chunking path.
	req, _ := appendPayload(nil, getContentReq{Ref: "store/v.mpg"})
	payload, err = sess.CallOver(MethodGetContent, req)
	if err != nil {
		t.Fatal(err)
	}
	if ck, err := DecodeContentChunk(payload); err != nil || len(ck.Data) != 100000 {
		t.Fatalf("content chunk err=%v", err)
	}

	// Errors cross the ATM path too.
	req, _ = appendPayload(nil, getDocReq{Name: "missing"})
	if _, err := sess.CallOver(MethodGetDoc, req); err == nil {
		t.Error("missing doc over ATM succeeded")
	}
	if n := len(sess.pending); n != 0 {
		t.Errorf("pending=%d after all calls", n)
	}
	reqB, rspB := sess.Traffic()
	if reqB == 0 || rspB < 100000 {
		t.Errorf("traffic accounting req=%d rsp=%d", reqB, rspB)
	}
}

func TestATMCallLatencyReflectsNetwork(t *testing.T) {
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	n, user, db := atmTestNet(t)
	sess, err := OpenATMSession(n, user, db, mux, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	start := n.Clock().Now()
	if _, err := sess.CallOver(MethodListDocs, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := n.Clock().Now().Sub(start)
	// 2×500µs propagation each way + 2ms service + serialization ≥ 4ms.
	if elapsed < 4*time.Millisecond {
		t.Errorf("call completed in %v, faster than physics allows", elapsed)
	}
	if elapsed > 20*time.Millisecond {
		t.Errorf("call took %v, suspiciously slow", elapsed)
	}
}

// TestATMRemoteErrorNamesMethod: a server-side failure over the ATM
// carrier reads like one over TCP — a RemoteError naming the method
// the client called.
func TestATMRemoteErrorNamesMethod(t *testing.T) {
	n, user, db := atmTestNet(t)
	sess, err := OpenATMSession(n, user, db, NewMux(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, err = sess.CallOver("db.Nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Method != "db.Nope" {
		t.Fatalf("err = %v, want a RemoteError for db.Nope", err)
	}
	if want := `transport: remote db.Nope: transport: unknown method: "db.Nope"`; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

func TestATMSessionSurvivesResponseLoss(t *testing.T) {
	// A lossy path breaks a chunked response; CallOver must fail
	// loudly ("never completed") rather than hang or return garbage,
	// and a later call on a clean path still works.
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)

	n := atm.New()
	n.BufferCells = 16 // tiny buffers: the big response overflows
	user := n.AddHost("user")
	db := n.AddHost("db")
	sw := n.AddSwitch("sw")
	x1 := n.AddHost("x1")
	x2 := n.AddHost("x2")
	n.Connect(user, sw, 155e6, 500*time.Microsecond)
	n.Connect(sw, db, 2e6, 500*time.Microsecond) // slow server link
	n.Connect(x1, sw, 155e6, 500*time.Microsecond)
	n.Connect(sw, x2, 155e6, 500*time.Microsecond)

	sess, err := OpenATMSession(n, user, db, mux, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flood the server→user direction is what matters: responses travel
	// db→sw→user; congest sw→user? The flood x1→x2 shares sw only.
	// Instead overload the session's own response path: issue many
	// large fetches at once so the 16-cell buffer drops chunks.
	req, _ := EncodeGetContent("store/v.mpg")
	errs := 0
	done := 0
	for i := 0; i < 8; i++ {
		sess.Go(MethodGetContent, req, func(p []byte, err error) {
			if err != nil {
				errs++
			}
			done++
		})
	}
	n.Clock().Run()
	if done == 8 && errs == 0 {
		t.Skip("no loss induced on this topology; nothing to assert")
	}
	// Some calls never completed (chunks lost) — they are still pending.
	if len(sess.pending) == 0 && errs == 0 {
		t.Error("loss occurred but every call completed cleanly")
	}
}

func TestLoopbackErrorPropagation(t *testing.T) {
	mux := NewMux()
	mux.RegisterPooled("boom", func(obs.SpanContext, string, []byte) ([]byte, func(), error) {
		return nil, nil, errors.New("kaput")
	})
	if _, err := CallInTrace(Loopback{H: mux}, obs.SpanContext{}, "boom", nil); err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Errorf("err=%v", err)
	}
	if err := (Loopback{}).Close(); err != nil {
		t.Error(err)
	}
}

// TestCarriersHaveOneCall: each of the five carriers is a Client, and
// none keeps a second, release-blind call beside CallInTracePooled.
func TestCarriersHaveOneCall(t *testing.T) {
	type plainCaller interface {
		Call(method string, payload []byte) ([]byte, error)
	}
	for _, c := range []Client{&TCPClient{}, &ClientPool{}, &RetryClient{}, &BreakerClient{}, Loopback{}} {
		if _, ok := c.(TraceCaller); ok {
			t.Errorf("%T has CallInTrace", c)
		}
		if _, ok := c.(plainCaller); ok {
			t.Errorf("%T has Call", c)
		}
	}
}

// TestDialTCPConnectBounded pins the connect timeout on DialTCP. The
// target is a TEST-NET-1 address (RFC 5737: never routed), so the SYN
// either black-holes or the local stack refuses it immediately; with
// the timeout applied the call must fail fast either way. Reverting to
// an unbounded net.Dial hangs this test for the OS connect default on
// any host where the address black-holes.
func TestDialTCPConnectBounded(t *testing.T) {
	old := DialTimeout
	DialTimeout = 100 * time.Millisecond
	defer func() { DialTimeout = old }()
	start := time.Now()
	c, err := DialTCP("192.0.2.1:9")
	elapsed := time.Since(start)
	if err == nil {
		c.Close()
		t.Skip("TEST-NET-1 address unexpectedly reachable on this host")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("DialTCP to a black-holed address took %v; connect timeout not applied", elapsed)
	}
}

// TestUnknownMethodsShareOneMetricSeries: the method name in a request
// is the peer's word. A client spraying made-up names must land on the
// one method="unknown" label, not mint a latency histogram and two
// counters per name. The requests are raw frames so the client-side
// metrics (which label by the caller's own method) stay out of it.
func TestUnknownMethodsShareOneMetricSeries(t *testing.T) {
	leaktest.Check(t)
	mux := NewMux()
	mux.RegisterPooled("echo", echo)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	call := func(id uint64, method string) {
		t.Helper()
		if err := writeFrame(conn, &frame{kind: kindRequest, id: id, corr: id, method: method}); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.corr != id || resp.errText == "" {
			t.Fatalf("bogus method %q answered %+v, want an error echoing corr %d", method, resp, id)
		}
	}
	serverSeries := func() int {
		n := 0
		for _, c := range obs.Default.Counters() {
			if strings.HasPrefix(c.Base(), "transport_server_") {
				n++
			}
		}
		for _, h := range obs.Default.Histograms() {
			if strings.HasPrefix(h.Base(), "transport_server_") {
				n++
			}
		}
		return n
	}

	call(1, "bogus.first") // mints the method="unknown" series, once
	before := serverSeries()
	unknown := obs.GetCounter("transport_server_rpcs_total", "method", "unknown")
	rpcs := unknown.Value()
	for i := uint64(0); i < 1000; i++ {
		call(2+i, fmt.Sprintf("bogus.%d", i))
	}
	if got := serverSeries(); got != before {
		t.Fatalf("1000 made-up method names grew the server's metric series from %d to %d", before, got)
	}
	if got := unknown.Value() - rpcs; got != 1000 {
		t.Fatalf(`transport_server_rpcs_total{method="unknown"} moved by %d, want 1000`, got)
	}
}

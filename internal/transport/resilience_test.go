package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/sim"
)

// fakeClient scripts call outcomes for retry-loop tests.
type fakeClient struct {
	mu     sync.Mutex
	errs   []error // consumed per call; nil entry = success
	calls  int
	closed int
}

func (f *fakeClient) CallInTracePooled(obs.SpanContext, string, []byte) ([]byte, func(), error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if len(f.errs) == 0 {
		return []byte("ok"), nil, nil
	}
	err := f.errs[0]
	f.errs = f.errs[1:]
	if err != nil {
		return nil, nil, err
	}
	return []byte("ok"), nil, nil
}

func (f *fakeClient) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed++
	return nil
}

// noSleep is a RetryPolicy Sleep that only records.
func noSleep(rec *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *rec = append(*rec, d) }
}

func TestRetryClientRetriesIdempotentCalls(t *testing.T) {
	fc := &fakeClient{errs: []error{fmt.Errorf("%w (synthetic)", ErrPeerClosed), nil}}
	var slept []time.Duration
	rc := NewRetryClient(func() (Client, error) { return fc, nil },
		RetryPolicy{Attempts: 3, Sleep: noSleep(&slept)}, 1)
	defer rc.Close()
	out, err := CallInTrace(rc, obs.SpanContext{}, MethodListDocs, nil)
	if err != nil || string(out) != "ok" {
		t.Fatalf("Call = (%q, %v), want recovery", out, err)
	}
	if len(slept) != 1 {
		t.Fatalf("backed off %d times, want 1", len(slept))
	}
	if fc.closed == 0 {
		t.Error("failed connection was not discarded before the retry")
	}
}

func TestRetryClientDoesNotRetryMutations(t *testing.T) {
	fc := &fakeClient{errs: []error{fmt.Errorf("%w (synthetic)", ErrPeerClosed), nil}}
	var slept []time.Duration
	rc := NewRetryClient(func() (Client, error) { return fc, nil },
		RetryPolicy{Attempts: 3, Sleep: noSleep(&slept)}, 1)
	defer rc.Close()
	_, err := CallInTrace(rc, obs.SpanContext{}, MethodPutDoc, nil)
	if err == nil {
		t.Fatal("non-idempotent call was retried to success")
	}
	if fc.calls != 1 {
		t.Fatalf("PutDocument attempted %d times, want exactly 1 (unknown outcome must not be replayed)", fc.calls)
	}
	var ce *CallError
	if !errors.As(err, &ce) || !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("error %v not a CallError wrapping ErrPeerClosed", err)
	}
}

func TestRetryClientRetriesDialFailures(t *testing.T) {
	dials := 0
	fc := &fakeClient{}
	var slept []time.Duration
	rc := NewRetryClient(func() (Client, error) {
		dials++
		if dials < 3 {
			return nil, errors.New("connection refused")
		}
		return fc, nil
	}, RetryPolicy{Attempts: 3, Sleep: noSleep(&slept)}, 1)
	defer rc.Close()
	// Dial failures are safe to retry even for mutations: nothing was
	// ever sent.
	if _, err := CallInTrace(rc, obs.SpanContext{}, MethodPutDoc, nil); err != nil {
		t.Fatalf("call after dial recovery failed: %v", err)
	}
	if dials != 3 {
		t.Fatalf("dialed %d times, want 3", dials)
	}
}

func TestRetryClientRemoteErrorsKeepConnection(t *testing.T) {
	fc := &fakeClient{errs: []error{&RemoteError{Method: MethodGetDoc, Text: "no such document"}}}
	rc := NewRetryClient(func() (Client, error) { return fc, nil },
		RetryPolicy{Attempts: 3, Sleep: func(time.Duration) {}}, 1)
	defer rc.Close()
	_, err := CallInTrace(rc, obs.SpanContext{}, MethodGetDoc, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("remote error lost its type: %v", err)
	}
	if fc.closed != 0 {
		t.Error("connection discarded on a handler error (carrier was fine)")
	}
}

func TestRetryBackoffGrowsAndJitters(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, JitterFrac: 0.5}.withDefaults()
	rng := sim.NewRNG(1)
	for retry, base := range map[int]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond, 4: 80 * time.Millisecond, 8: 80 * time.Millisecond} {
		d := p.backoffFor(retry, rng)
		lo, hi := base/2, base+base/2
		if d < lo || d > hi {
			t.Errorf("backoff(retry=%d) = %v, want within [%v, %v]", retry, d, lo, hi)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker("peer-a", 3, 100*time.Millisecond).SetClock(clock)

	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejected a call: %v", err)
	}
	for i := 0; i < 3; i++ {
		b.Record(errors.New("boom"))
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker error = %v, want ErrBreakerOpen", err)
	}

	// Cooldown elapses: one probe allowed, a second concurrent call is
	// still rejected.
	now = now.Add(150 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second in-flight probe allowed: %v", err)
	}

	// Probe fails: back to open; another cooldown and a successful
	// probe closes it.
	b.Record(errors.New("still down"))
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	now = now.Add(150 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Record(nil)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
}

func TestBreakerClientIgnoresRemoteErrors(t *testing.T) {
	fc := &fakeClient{errs: []error{
		&RemoteError{Method: MethodGetDoc, Text: "x"},
		&RemoteError{Method: MethodGetDoc, Text: "x"},
		&RemoteError{Method: MethodGetDoc, Text: "x"},
	}}
	bc := WithBreaker(fc, NewBreaker("peer-b", 2, time.Second))
	for i := 0; i < 3; i++ {
		CallInTrace(bc, obs.SpanContext{}, MethodGetDoc, nil) //nolint:errcheck // remote errors are the point
	}
	if got := bc.b.State(); got != BreakerClosed {
		t.Fatalf("remote errors tripped the breaker: %v", got)
	}
}

// dbServer starts a real TCP server backed by a mediastore, returning
// the address.
func dbServer(t *testing.T) string {
	t.Helper()
	store := mediastore.New()
	if _, err := store.PutDocument("doc", "Doc", "text", []byte("body")); err != nil {
		t.Fatal(err)
	}
	mux := NewMux()
	RegisterStore(mux, store)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// rawServer accepts one connection and hands it to fn.
func rawServer(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fn(conn)
	}()
	return l.Addr().String()
}

func TestDBClientPeerClosedMidResponse(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn) {
		// Read the request, then advertise a response and hang up
		// halfway through it.
		readFrame(conn, false) //nolint:errcheck // scripted peer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 64)
		conn.Write(hdr[:])           //nolint:errcheck
		conn.Write(make([]byte, 20)) //nolint:errcheck
	})
	cl, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	db := DBClient{C: cl}
	_, err = db.GetListDoc()
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("mid-response hangup error = %v, want ErrPeerClosed", err)
	}
	var ce *CallError
	if !errors.As(err, &ce) || ce.Method != MethodListDocs {
		t.Fatalf("error %v is not a CallError naming the method", err)
	}
}

func TestDBClientMalformedStatusFrame(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn) {
		req, err := readFrame(conn, false)
		if err != nil {
			return
		}
		// A frame with an undefined kind byte: length prefix is valid,
		// the body is garbage.
		body := []byte{0x7F}
		body = binary.BigEndian.AppendUint64(body, req.id)
		body = append(body, 0, 0, 0, 0, 0, 0, 0, 0)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		conn.Write(hdr[:]) //nolint:errcheck
		conn.Write(body)   //nolint:errcheck
	})
	cl, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	db := DBClient{C: cl}
	_, err = db.GetListDoc()
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("malformed frame error = %v, want ErrBadFrame", err)
	}
}

func TestDBClientDeadlineExpiry(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := rawServer(t, func(conn net.Conn) {
		readFrame(conn, false) //nolint:errcheck // scripted peer
		<-block                // never respond
	})
	cl, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 30 * time.Millisecond
	db := DBClient{C: cl}
	start := time.Now()
	_, err = db.GetListDoc()
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("deadline error = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

func TestResilientDBClientEndToEnd(t *testing.T) {
	addr := dbServer(t)
	dial := func() (Client, error) { return DialTCP(addr) }
	db, br := NewResilientDBClient("db", dial, RetryPolicy{Attempts: 2}, 3, 50*time.Millisecond, 11)
	defer db.C.Close()
	names, err := db.GetListDoc()
	if err != nil || len(names) != 1 {
		t.Fatalf("GetListDoc = (%v, %v), want one doc", names, err)
	}
	if br.State() != BreakerClosed {
		t.Fatalf("healthy path left breaker %v", br.State())
	}
}

// TestReadFrameStreamsLargeBodies is the regression for the up-front
// MaxFrame allocation: a header advertising a large length must not
// allocate the full body before the bytes arrive.
func TestReadFrameStreamsLargeBodies(t *testing.T) {
	// A huge-but-legal header followed by a closed connection: the
	// reader fails, and must not have allocated the advertised 15MB.
	addr := rawServer(t, func(conn net.Conn) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 15<<20)
		conn.Write(hdr[:])           //nolint:errcheck
		conn.Write(make([]byte, 10)) //nolint:errcheck
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := readFrame(conn, false); err == nil {
		t.Fatal("truncated 15MB frame decoded successfully")
	}
	runtime.ReadMemStats(&after)
	// The failed read should cost ~one readGrant (65KB), nowhere near
	// the advertised 15MB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("failed large-frame read allocated %d bytes (up-front allocation regressed)", grew)
	}
}

// TestReadBodyGrowthPath round-trips a body large enough to exercise
// the chunked growth loop.
func TestReadBodyGrowthPath(t *testing.T) {
	payload := make([]byte, 300<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	f := &frame{kind: kindRequest, id: 9, method: "m", payload: payload}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		writeFrame(a, f) //nolint:errcheck // read side validates
	}()
	got, err := readFrame(b, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.id != 9 || len(got.payload) != len(payload) {
		t.Fatalf("round trip: id=%d len=%d", got.id, len(got.payload))
	}
	for i := range payload {
		if got.payload[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

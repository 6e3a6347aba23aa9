package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mits/internal/lint/leaktest"
	"mits/internal/obs"
	"mits/internal/obs/spantest"
)

// --- frame unit coverage ("V3" is the layout's historical name; it is
// the only one) ---

// TestFrameV3RoundTrip checks the correlation ID (and the trace context
// riding behind it) survives the encoding in both kinds.
func TestFrameV3RoundTrip(t *testing.T) {
	for _, kind := range []frameKind{kindRequest, kindResponse} {
		f := &frame{kind: kind, id: 9, corr: 77, trace: 0xdeadbeefcafe, span: 42, payload: []byte{1, 2, 3}}
		if kind == kindRequest {
			f.method = "db.GetContent"
		} else {
			f.errText = "boom"
		}
		got, err := unmarshalFrame(f.marshal())
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if got.kind != kind || got.corr != 77 || got.trace != f.trace || got.span != f.span || got.id != 9 {
			t.Fatalf("kind %d round trip mangled: %+v", kind, got)
		}
	}
}

// TestFrameV3UntracedRoundTrip pins that a correlated-but-untraced
// frame keeps its correlation ID (the trace context encodes as zeros).
func TestFrameV3UntracedRoundTrip(t *testing.T) {
	f := &frame{kind: kindRequest, id: 5, corr: 5, method: "m"}
	got, err := unmarshalFrame(f.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.corr != 5 || got.trace != 0 || got.span != 0 {
		t.Fatalf("untraced frame mangled: %+v", got)
	}
}

// TestFrameV3Truncated makes sure every proper prefix of a frame errors
// instead of reading out of bounds.
func TestFrameV3Truncated(t *testing.T) {
	f := &frame{kind: kindRequest, id: 1, corr: 2, trace: 5, span: 6, method: "m"}
	raw := f.marshal()
	for n := 0; n < len(raw); n++ {
		if _, err := unmarshalFrame(raw[:n]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncated frame of %d bytes: err = %v, want ErrBadFrame", n, err)
		}
	}
}

// --- pipelining behaviour over real TCP ---

// pipelineServer starts an echo-style server whose "block" method
// parks until release is closed, for tests that need calls held in
// flight deterministically.
func pipelineServer(t *testing.T, release chan struct{}, inFlight *atomic.Int64) (*TCPServer, string) {
	t.Helper()
	mux := NewMux()
	mux.Register("echo", func(_ string, p []byte) ([]byte, error) { return p, nil })
	mux.Register("block", func(_ string, p []byte) ([]byte, error) {
		if inFlight != nil {
			inFlight.Add(1)
		}
		<-release
		return p, nil
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// TestPipelinedOutOfOrderCompletion is the tentpole's acceptance
// shape: with one call parked in the server, later calls on the same
// connection still complete — responses are matched by correlation ID,
// not arrival order.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	var parked atomic.Int64
	srv, addr := pipelineServer(t, release, &parked)
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	blocked := make(chan error, 1)
	go func() {
		_, err := CallInTrace(cli, obs.SpanContext{}, "block", []byte("held"))
		blocked <- err
	}()
	waitFor(t, func() bool { return parked.Load() == 1 })

	// Neighbours must complete while "block" is still in flight.
	for i := 0; i < 8; i++ {
		out, err := CallInTrace(cli, obs.SpanContext{}, "echo", []byte{byte(i)})
		if err != nil {
			t.Fatalf("echo %d behind a blocked call: %v", i, err)
		}
		if len(out) != 1 || out[0] != byte(i) {
			t.Fatalf("echo %d returned %v", i, out)
		}
	}
	select {
	case err := <-blocked:
		t.Fatalf("blocked call completed early: %v", err)
	default:
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked call failed after release: %v", err)
	}
}

// TestUnknownCorrelationResponse hand-speaks the server side of the
// protocol: a response bearing a correlation ID nobody is waiting for
// must be counted and dropped, and the connection must stay usable for
// the real response behind it.
func TestUnknownCorrelationResponse(t *testing.T) {
	leaktest.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		req, err := readFrame(conn, false)
		if err != nil {
			srvErr <- err
			return
		}
		// First a response for a correlation ID that was never issued…
		bogus := &frame{kind: kindResponse, id: 9999, corr: 9999, payload: []byte("ghost")}
		if err := writeFrame(conn, bogus); err != nil {
			srvErr <- err
			return
		}
		// …then the real one.
		real := &frame{kind: kindResponse, id: req.id, corr: req.corr, payload: req.payload}
		srvErr <- writeFrame(conn, real)
	}()

	before := obsUnknownCorr.Value()
	cli := mustDial(t, ln.Addr().String())
	defer cli.Close()
	out, err := CallInTrace(cli, obs.SpanContext{}, "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("call after bogus response: %v", err)
	}
	if string(out) != "hi" {
		t.Fatalf("payload %q", out)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
	if got := obsUnknownCorr.Value() - before; got != 1 {
		t.Fatalf("unknown-corr counter moved by %d, want 1", got)
	}
}

// TestConnDeathFailsAllInFlight parks 10 calls in the server, severs
// the connection, and requires every one of them to fail with the
// typed ErrPeerClosed — the pending-call map drains exactly once.
func TestConnDeathFailsAllInFlight(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	var parked atomic.Int64
	srv, addr := pipelineServer(t, release, &parked)
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const calls = 10
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := CallInTrace(cli, obs.SpanContext{}, "block", nil)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return parked.Load() == calls })

	// Close severs the connections first (failing the client's pending
	// map immediately), then drains serving goroutines — which are
	// still parked in the handler, so run it aside and unpark them only
	// after every call has reported its typed failure.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for i := 0; i < calls; i++ {
		err := <-errs
		if !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("in-flight call %d: got %v, want ErrPeerClosed", i, err)
		}
		var ce *CallError
		if !errors.As(err, &ce) || ce.Method != "block" {
			t.Fatalf("in-flight call %d: not a typed CallError: %v", i, err)
		}
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("server close: %v", err)
	}
}

// TestInjectedStallDoesNotBlockNeighbors stalls one method's handler
// while neighbours run clean: the stalled call must be the only slow
// one. (A conn-level read stall would park the shared reader goroutine
// — head-of-line by construction — so the per-call stall is injected
// where it lands in production: in the handler.)
func TestInjectedStallDoesNotBlockNeighbors(t *testing.T) {
	leaktest.Check(t)
	const stallFor = 300 * time.Millisecond
	mux := NewMux()
	mux.Register("echo", func(_ string, p []byte) ([]byte, error) { return p, nil })
	mux.Register("slow", func(_ string, p []byte) ([]byte, error) {
		time.Sleep(stallFor)
		return p, nil
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	start := time.Now()
	slowDone := make(chan time.Duration, 1)
	go func() {
		if _, err := CallInTrace(cli, obs.SpanContext{}, "slow", nil); err != nil {
			t.Errorf("stalled call failed: %v", err)
		}
		slowDone <- time.Since(start)
	}()
	var wg sync.WaitGroup
	var fastMax atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := CallInTrace(cli, obs.SpanContext{}, "echo", nil); err != nil {
				t.Errorf("neighbour failed: %v", err)
			}
			for {
				d := int64(time.Since(start))
				prev := fastMax.Load()
				if d <= prev || fastMax.CompareAndSwap(prev, d) {
					return
				}
			}
		}()
	}
	wg.Wait()
	slow := <-slowDone
	if slow < stallFor {
		t.Fatalf("stalled call finished in %v, before the %v stall", slow, stallFor)
	}
	if fast := time.Duration(fastMax.Load()); fast >= stallFor {
		t.Fatalf("neighbours took %v — convoyed behind the %v stall", fast, stallFor)
	}
}

// TestCallTimeoutKeepsConnection checks the per-call deadline story:
// a timed-out call abandons its pending entry, the late response is
// dropped by correlation ID, and the same connection keeps serving.
func TestCallTimeoutKeepsConnection(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	var parked atomic.Int64
	srv, addr := pipelineServer(t, release, &parked)
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Timeout = 50 * time.Millisecond

	_, err = CallInTrace(cli, obs.SpanContext{}, "block", nil)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("got %v, want ErrCallTimeout", err)
	}
	before := obsUnknownCorr.Value()
	close(release) // the late response arrives now, for a call nobody waits on
	waitFor(t, func() bool { return obsUnknownCorr.Value() > before })

	out, err := CallInTrace(cli, obs.SpanContext{}, "echo", []byte("still alive"))
	if err != nil {
		t.Fatalf("connection unusable after a timeout: %v", err)
	}
	if string(out) != "still alive" {
		t.Fatalf("payload %q", out)
	}
}

// TestCallTracedPerCall: under concurrency every call issued under its
// own root span travels under that span's trace — all distinct, each
// with a server span joined to it — which is why the client needs no
// last-writer-wins "last trace" of its own.
func TestCallTracedPerCall(t *testing.T) {
	leaktest.Check(t)
	srv, addr := pipelineServer(t, nil, nil)
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rec := spantest.Record(t, obs.Default)
	const calls = 16
	traces := make([]obs.TraceID, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, trace, err := callUnderRoot(cli, "echo", []byte{byte(i)})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
			traces[i] = trace
		}(i)
	}
	wg.Wait()
	seen := make(map[obs.TraceID]bool, calls)
	for i, tr := range traces {
		if tr == 0 {
			t.Fatalf("call %d reported zero trace", i)
		}
		if seen[tr] {
			t.Fatalf("trace %s reported by two calls", tr)
		}
		seen[tr] = true
		foundServer := false
		for _, s := range rec.Of(tr) {
			if s.Kind == "server" {
				foundServer = true
			}
		}
		if !foundServer {
			t.Fatalf("trace %s has no server span", tr)
		}
	}
}

// TestPipelineStress64 is the -race stress gate: 64 goroutines hammer
// one client; every response must round-trip its own payload (no
// cross-delivery between correlation IDs).
func TestPipelineStress64(t *testing.T) {
	leaktest.Check(t)
	srv, addr := pipelineServer(t, nil, nil)
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const (
		callers = 64
		each    = 40
	)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				want := fmt.Sprintf("g%d-i%d", g, i)
				out, err := CallInTrace(cli, obs.SpanContext{}, "echo", []byte(want))
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if string(out) != want {
					t.Errorf("caller %d call %d: got %q want %q — responses crossed", g, i, out, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCloseDrainsPendingExactlyOnce is the Close bugfix test:
// concurrent Closes racing in-flight calls must drain the pending map
// once (every call gets exactly one typed completion), never
// double-close the quit channel (which would panic), and all Closes
// return the same result.
func TestCloseDrainsPendingExactlyOnce(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	var parked atomic.Int64
	srv, addr := pipelineServer(t, release, &parked)
	defer srv.Close()
	defer close(release)
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}

	const calls = 8
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := CallInTrace(cli, obs.SpanContext{}, "block", nil)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return parked.Load() == calls })

	var wg sync.WaitGroup
	closeErrs := make([]error, 4)
	for i := range closeErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			closeErrs[i] = cli.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range closeErrs {
		if err != nil {
			t.Fatalf("concurrent Close %d: %v", i, err)
		}
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("in-flight call %d after Close: got %v, want ErrPeerClosed", i, err)
		}
	}
	// And calls issued after Close fail fast with the same typed error.
	if _, err := CallInTrace(cli, obs.SpanContext{}, "echo", nil); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("post-Close call: got %v, want ErrPeerClosed", err)
	}
}

// TestEnqueueBlockedCallersReleasedOnConnDeath pins the regression
// where callers blocked enqueueing on a full send queue hung forever
// when the connection died: fail() completes every registered call,
// and the enqueue select must honour that completion. No per-call
// Timeout is set on purpose — the timer is armed only after a
// successful enqueue, so it cannot be what frees these callers.
func TestEnqueueBlockedCallersReleasedOnConnDeath(t *testing.T) {
	leaktest.Check(t)
	cliConn, srvConn := net.Pipe()
	c := NewTCPClient(cliConn)

	// One call first, to stall the writer: net.Pipe's Write returns
	// only when every byte is read, so once one byte of that frame has
	// come out of the far end the writer is inside a flush it can never
	// finish. (Launching everyone at once left it to the scheduler how
	// many frames the writer drained into its batch before stalling, and
	// whenever that was more than the overflow the queue never filled.)
	// Then more callers than the send queue can absorb, so the overflow
	// is parked in the enqueue select.
	const callers = 1 + sendQueueDepth + 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	call := func() {
		defer wg.Done()
		_, err := CallInTrace(c, obs.SpanContext{}, "stalled", nil)
		errs <- err
	}
	wg.Add(callers)
	go call()
	if _, err := srvConn.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < callers; i++ {
		go call()
	}

	waitFor(t, func() bool {
		c.mu.Lock()
		registered := len(c.pending)
		c.mu.Unlock()
		return registered == callers && len(c.sendq) == sendQueueDepth
	})

	srvConn.Close() // the connection dies under the stalled writer

	released := make(chan struct{})
	go func() { wg.Wait(); close(released) }()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("callers still blocked after connection death")
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("caller %d: got %v, want ErrPeerClosed", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after failure: %v", err)
	}
}

// TestWriteLoopSkipsAbandonedFrames checks that a call that timed out
// while its frame was still queued behind the writer is never written:
// the server should not spend a maxInFlight slot computing a response
// the client will drop by correlation ID.
func TestWriteLoopSkipsAbandonedFrames(t *testing.T) {
	leaktest.Check(t)
	cliConn, srvConn := net.Pipe()
	c := NewTCPClient(cliConn)
	defer srvConn.Close()
	defer c.Close()

	// Hand the writer a frame whose call has already been abandoned —
	// the state abandon() leaves behind when the deadline fires with
	// the frame still in the queue.
	dead := &pendingCall{req: &frame{kind: kindRequest, id: 999, corr: 999, method: "dead"}, done: make(chan struct{})}
	dead.abandoned.Store(true)
	c.sendq <- dead

	live := make(chan error, 1)
	go func() {
		_, err := CallInTrace(c, obs.SpanContext{}, "live", nil)
		live <- err
	}()

	// The first frame to reach the wire must be the live call's: the
	// abandoned one queued ahead of it was dropped unwritten.
	f, err := readFrame(srvConn, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.method != "live" {
		t.Fatalf("first frame on the wire is %q, want the abandoned %q skipped", f.method, "dead")
	}
	if err := writeFrame(srvConn, &frame{kind: kindResponse, id: f.id, corr: f.corr}); err != nil {
		t.Fatal(err)
	}
	if err := <-live; err != nil {
		t.Fatalf("live call behind a skipped frame failed: %v", err)
	}
}

// mustDial dials or fails the test.
func mustDial(t *testing.T, addr string) *TCPClient {
	t.Helper()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	return cli
}

// waitFor polls cond to true within a bounded window.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

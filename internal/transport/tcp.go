package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mits/internal/obs"
)

// Process-wide transport counters, cached at init so the per-frame
// cost is one atomic add (the map lookup happens once).
var (
	obsBytesTx = obs.GetCounter("transport_bytes_tx_total")
	obsBytesRx = obs.GetCounter("transport_bytes_rx_total")
	// obsUnknownCorr counts responses whose correlation ID matched no
	// pending call — late arrivals for calls that already timed out, or
	// a confused peer. Nonzero under deadline pressure is normal;
	// growth without timeouts is a peer bug.
	obsUnknownCorr = obs.GetCounter("transport_client_unknown_corr_total")
)

// readGrant is the first allocation for a frame body: a default
// stream chunk plus its chunk and frame headers, so the frame the
// delivery path moves most takes one buffer and no grow-copy, while a
// hostile header still reserves little before any payload arrives.
const readGrant = DefaultStreamChunkBytes + 1<<10

// readFrame receives one length-prefixed frame. With pooled set, the
// body buffer comes from (and, on decode failure, returns to) the
// frame pool and the caller must releaseFrame the result when the
// frame's payload is no longer referenced; without it the buffer is a
// plain allocation owned by whoever ends up holding the payload.
func readFrame(r io.Reader, pooled bool) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: incoming frame of %d bytes exceeds limit", n)
	}
	body, err := readBody(r, int(n), pooled)
	if err != nil {
		return nil, err
	}
	obsBytesRx.Add(int64(4 + len(body)))
	f, err := unmarshalFrame(body)
	if err != nil {
		if pooled {
			putBuf(body)
		}
		return nil, err
	}
	if pooled {
		f.buf = body
	}
	return f, nil
}

// releaseFrame returns a pooled frame's backing buffer for reuse. The
// frame's payload (and anything aliasing it) must not be touched
// afterwards. No-op for frames read without pooling.
func releaseFrame(f *frame) {
	if f.buf != nil {
		putBuf(f.buf)
		f.buf = nil
		f.payload = nil
	}
}

// frameBuf allocates an n-byte body buffer from the pool or the heap.
func frameBuf(n int, pooled bool) []byte {
	if pooled {
		return getBuf(n)[:n]
	}
	return make([]byte, n)
}

// readBody reads exactly n bytes, growing the buffer as data actually
// arrives: a peer advertising a huge-but-legal length gets at most one
// readGrant of memory up front, and capacity only doubles after the
// previously granted bytes have been delivered. Growth intermediates
// (and the result, on error) go back to the pool when pooled.
func readBody(r io.Reader, n int, pooled bool) ([]byte, error) {
	buf := frameBuf(min(n, readGrant), pooled)
	for read := 0; ; {
		if _, err := io.ReadFull(r, buf[read:]); err != nil {
			if pooled {
				putBuf(buf)
			}
			return nil, err
		}
		if read = len(buf); read == n {
			return buf, nil
		}
		grown := frameBuf(min(2*read, n), pooled)
		copy(grown, buf)
		if pooled {
			putBuf(buf)
		}
		buf = grown
	}
}

// TCPServer serves a Handler over TCP — the content server process of
// Fig 3.5, "distributed applications ... consist of a number of
// independent programs running on remote hosts". Requests on one
// connection are handled concurrently (bounded by maxInFlight) and
// responses are matched to requests by correlation ID, so they may
// complete out of order behind a pipelined client.
type TCPServer struct {
	handler Loopback // the handler, called in the richest contract it speaks

	// ConnTimeout, when set, bounds each frame read and write on every
	// connection (a per-operation deadline): a stalled or vanished
	// client cannot pin a serving goroutine forever. It also acts as
	// an idle timeout between requests. Set before Listen/Serve.
	ConnTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	closeErr error // first Close's listener error, returned by later calls
	wg       sync.WaitGroup
}

// maxInFlight bounds how many requests one connection may have in
// handlers simultaneously; beyond it the connection's read loop stops
// admitting work (natural backpressure on the pipelining client). It
// is enough to keep every core of a content server busy under one
// navigator's pipeline, small enough that a misbehaving client cannot
// fork-bomb the server.
const maxInFlight = 32

// NewTCPServer wraps a handler. When h also implements CtxHandler, the
// server threads each request's trace context through HandleCtx so
// nested RPCs stay in the caller's trace (PooledCtxHandler likewise).
func NewTCPServer(h Handler) *TCPServer {
	return &TCPServer{handler: Loopback{H: h}, conns: make(map[net.Conn]bool)}
}

// Listen starts accepting on addr ("127.0.0.1:0" for tests) and returns
// the bound address. Serving proceeds on background goroutines until
// Close.
func (s *TCPServer) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if err := s.Serve(l); err != nil {
		l.Close()
		return "", err
	}
	return l.Addr().String(), nil
}

// Serve starts accepting on an existing listener — for example one
// wrapped by a fault injector — and returns immediately; serving
// proceeds on background goroutines until Close.
func (s *TCPServer) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("transport: server already closed")
	}
	s.listener = l
	// Register the accept loop before releasing the lock: a concurrent
	// Close must not run wg.Wait between our Unlock and a late wg.Add,
	// or it would return with the accept loop still alive.
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(l)
	return nil
}

// Accept-loop backoff bounds for temporary errors (fd exhaustion, a
// misbehaving NIC, an injected fault): back off instead of spinning or
// dying, and reset once an accept succeeds.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// isTemporary reports whether an accept error is worth retrying. The
// net.Error.Temporary contract is deprecated for general errors but
// remains the accept-loop idiom (net/http does the same).
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary() //nolint:staticcheck
}

func (s *TCPServer) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	backoff := acceptBackoffMin
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) || !isTemporary(err) {
				return // listener closed or permanently broken
			}
			obs.GetCounter("transport_accept_retries_total").Inc()
			time.Sleep(backoff) //mits:allow sleepless accept backoff against a transiently failing listener
			backoff *= 2
			if backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn is one connection's read loop: it decodes requests in
// arrival order and hands each to a bounded worker goroutine, so a
// slow query (a big GetContent) does not convoy the fast ones queued
// behind it on the same connection. Completed responses funnel through
// a per-connection flush-combining writer that coalesces everything
// queued at each flush into one vectored write.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	rw := newRespWriter(conn, s.ConnTimeout)
	var handlers sync.WaitGroup
	defer func() {
		handlers.Wait() // all workers done (and their responses flushed) ...
		rw.close()      // ... then the writer's scratch goes back to the pool
	}()
	sem := make(chan struct{}, maxInFlight)
	// Frame reads go through one buffered reader, so a burst of small
	// pipelined requests costs ~1 read syscall, not 2 per frame
	// (header + body). Deadlines still arm on the conn itself.
	br := bufio.NewReaderSize(conn, batchScratchSize)
	for {
		if s.ConnTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.ConnTimeout))
		}
		req, err := readFrame(br, true)
		if err != nil {
			return
		}
		if req.kind != kindRequest {
			releaseFrame(req)
			return
		}
		sem <- struct{}{} // backpressure: stop reading at maxInFlight
		handlers.Add(1)
		go func(req *frame) {
			defer handlers.Done()
			defer func() { <-sem }()
			s.handleRequest(rw, req)
		}(req)
	}
}

// respEntry pairs a completed response with the request frame whose
// pooled buffer it may alias and, for a pooled response, the handler's
// release; the writer recycles both only after the response bytes are
// encoded — or the entry is discarded — and exactly once.
type respEntry struct {
	resp    *frame
	req     *frame
	release func() // nil unless the payload is a pooled buffer
}

// done recycles what the entry holds once nothing reads it any more.
func (e respEntry) done() {
	releaseFrame(e.req)
	if e.release != nil {
		e.release()
	}
}

// respWriter is a connection's flush-combining response writer. A
// handler finishing alone writes its response directly (a batch of
// one, same syscall count as the old mutex-serialized path, no
// goroutine handoff); handlers finishing while another holds the wire
// just queue theirs and return — the active flusher keeps draining the
// queue into vectored writes until it is empty. Under load the batch
// width approaches the number of concurrently completing handlers
// without a dedicated writer goroutine's wakeup latency on the
// critical path.
type respWriter struct {
	conn    net.Conn
	timeout time.Duration

	mu     sync.Mutex
	w      *batchWriter
	queue  []respEntry // responses awaiting the active flusher
	spare  []respEntry // recycled queue backing to keep enqueue alloc-free
	active bool        // a flusher is draining the queue
	dead   bool        // write failed or conn torn down; discard from now on
}

func newRespWriter(conn net.Conn, timeout time.Duration) *respWriter {
	return &respWriter{conn: conn, timeout: timeout, w: newBatchWriter(conn)}
}

// enqueue hands one completed response to the writer. It never blocks
// on the network on behalf of another handler's response: the caller
// either becomes the flusher (and writes, possibly for others too) or
// appends and returns.
func (rw *respWriter) enqueue(e respEntry) {
	rw.mu.Lock()
	if rw.dead {
		rw.mu.Unlock()
		e.done()
		return
	}
	rw.queue = append(rw.queue, e)
	if rw.active {
		rw.mu.Unlock() // the current flusher will take it
		return
	}
	rw.active = true
	for len(rw.queue) > 0 && !rw.dead {
		batch := rw.queue
		rw.queue = rw.spare[:0]
		rw.mu.Unlock()

		if rw.timeout > 0 {
			_ = rw.conn.SetWriteDeadline(time.Now().Add(rw.timeout))
		}
		var werr error
		for _, be := range batch {
			if werr == nil {
				werr = rw.w.add(be.resp)
			}
			// add copied the response out (or the write is already
			// failed); its buffer and the request's are recyclable.
			be.done()
		}
		if werr == nil {
			werr = rw.w.flush()
		}

		rw.mu.Lock()
		rw.spare = batch[:0]
		if werr != nil && !rw.dead {
			rw.dead = true
			// The read loop cannot observe a worker's write failure;
			// close the conn so it stops admitting requests nobody can
			// answer.
			rw.conn.Close()
		}
	}
	if rw.dead {
		rw.discardLocked()
	}
	rw.active = false
	rw.mu.Unlock()
}

// discardLocked releases everything still queued. Caller holds mu.
func (rw *respWriter) discardLocked() {
	for _, e := range rw.queue {
		e.done()
	}
	rw.queue = rw.queue[:0]
}

// close marks the writer dead and recycles its scratch. Called after
// every handler has returned, so no flusher is active and nothing can
// enqueue afterwards.
func (rw *respWriter) close() {
	rw.mu.Lock()
	rw.dead = true
	rw.discardLocked()
	if rw.w != nil {
		rw.w.release()
		rw.w = nil
	}
	rw.mu.Unlock()
}

// handleRequest runs the handler for one decoded request and queues
// its response for the connection's writer, echoing the correlation ID
// (and trace context) so the multiplexed client can match it however
// late it completes.
func (s *TCPServer) handleRequest(rw *respWriter, req *frame) {
	// Server span: joins the trace the client stamped into the frame
	// header (nil span when the request is untraced).
	var sp *obs.Span
	if req.trace != 0 {
		sp = obs.ContinueSpan(req.method, "server", obs.TraceID(req.trace), obs.SpanID(req.span))
	}
	start := time.Now()
	// sp.Context() parents nested work under the server span; it is the
	// zero context (untraced) when sp is nil.
	payload, release, herr := s.handler.CallInTracePooled(sp.Context(), req.method, req.payload)
	// The method name is the peer's word until a handler has accepted
	// it: names nobody serves share one label, so a client cannot mint a
	// metric series per made-up name.
	label := req.method
	if errors.Is(herr, ErrUnknownMethod) {
		label = "unknown"
	}
	obs.Observe("transport_server_latency_ns", time.Since(start), "method", label)
	obs.GetCounter("transport_server_rpcs_total", "method", label).Inc()
	if herr != nil {
		obs.GetCounter("transport_server_errors_total", "method", label).Inc()
	}
	sp.End(herr)
	resp := &frame{kind: kindResponse, id: req.id, corr: req.corr, trace: req.trace, span: req.span, payload: payload}
	if herr != nil {
		resp.errText = herr.Error()
		resp.payload = nil
	}
	// The response may alias the request payload (echo-style handlers);
	// the writer recycles the request buffer only after encoding the
	// response, so the pair travels together.
	rw.enqueue(respEntry{resp: resp, req: req, release: release})
}

// Close stops the listener and all connections, waiting for serving
// goroutines to drain. Close is idempotent and safe to call
// concurrently; every call waits for the drain and returns the first
// call's listener error.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.listener != nil {
			s.closeErr = s.listener.Close()
		}
		for c := range s.conns {
			c.Close() // unblocks serveConn's read; its own close error is the signal
		}
	}
	err := s.closeErr
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// TCPClient is the client module embedded in the navigator (§5.3.2),
// upgraded from the thesis's one-call-at-a-time Client() routine into a
// multiplexed, pipelined client: any number of goroutines may call
// concurrently over the one connection, each call carrying a
// correlation ID that a writer goroutine serializes onto the wire and
// a reader goroutine matches back out of order. The pending-call map
// is the rendezvous; per-call timers (not connection deadlines) bound
// each call, so one slow response cannot fail its neighbours.
type TCPClient struct {
	// Timeout, when set, is the per-call deadline: a call that has not
	// completed within it fails with ErrCallTimeout instead of waiting
	// on a slow or dead peer forever. A timed-out call abandons its
	// pending entry; the connection stays usable, a frame still queued
	// behind the writer is dropped unwritten, and a late response is
	// discarded by correlation ID. Set before the first call.
	Timeout time.Duration

	conn    net.Conn
	sendq   chan *pendingCall
	quit    chan struct{} // closed exactly once by Close
	streams atomic.Int32  // content streams holding this stripe of a pool

	mu       sync.Mutex
	pending  map[uint64]*pendingCall
	nextCorr uint64
	closed   bool
	dead     error // first terminal transport failure; nil while usable

	connOnce sync.Once
	connErr  error

	wg sync.WaitGroup // writer + reader loops
}

// pendingCall is one started request: start parks it in the pending
// map and hands its frame to the writer, completion (response,
// connection failure, or close-drain) sets resp or err and closes done
// exactly once, and the caller settles it exactly once — wait, or
// cancel for a call nobody will wait for.
type pendingCall struct {
	c       *TCPClient
	sp      *obs.Span     // client span, opened by start and ended by settle
	timeout time.Duration // the client's per-call deadline, counted from start; 0 = none
	req     *frame
	method  string
	done    chan struct{}
	resp    *frame
	err     error

	// abandoned is set when the call times out or is cancelled while
	// its frame may still be queued behind the writer; the writer drops
	// flagged frames instead of spending wire bytes and a server
	// maxInFlight slot on a response nobody will take.
	abandoned atomic.Bool
}

// sendQueueDepth bounds how many encoded-but-unwritten requests can
// queue ahead of the writer goroutine before callers block.
const sendQueueDepth = 64

// errClientClosed is the terminal error of a locally-closed client; it
// wraps ErrPeerClosed so call sites need only one errors.Is check for
// "the connection is gone, whoever's fault it was".
var errClientClosed = fmt.Errorf("%w (client closed)", ErrPeerClosed)

// DialTimeout bounds DialTCP's TCP connect. An unbounded net.Dial
// blocks in SYN retries for the OS default (minutes) when the peer
// address black-holes; no navigator start-up should wait that long to
// learn the content server is unreachable. A var, not a const, so
// chaos harnesses can shorten it.
var DialTimeout = 10 * time.Second

// DialTCP connects to a server, giving up after DialTimeout.
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	return NewTCPClient(conn), nil
}

// NewTCPClient wraps an established connection — for example one
// produced by a fault injector — in a client, starting its writer and
// reader goroutines. Close stops them.
func NewTCPClient(conn net.Conn) *TCPClient {
	c := &TCPClient{
		conn:    conn,
		sendq:   make(chan *pendingCall, sendQueueDepth),
		quit:    make(chan struct{}),
		pending: make(map[uint64]*pendingCall),
	}
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	return c
}

// CallInTracePooled implements Client: issue a request, wait for its
// response. Safe for concurrent use; calls pipeline onto the one
// connection. The client span continues the trace in sc (parented
// under sc.Parent), or opens a fresh one when sc is zero; its IDs ride
// the frame header, so the server's span lands in the same trace and a
// server handling a request can fan out to another site within it.
// The returned payload is backed by a pooled frame buffer that release
// (when non-nil) recycles: the caller must not touch the payload — or
// anything aliasing it — after calling release, and must not call it
// twice. Dropping release is always safe: the buffer falls to the GC.
func (c *TCPClient) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	out, resp, err := c.start(sc, method, payload).wait()
	return out, poolRelease(resp), err
}

// poolRelease adapts a pooled response frame into the release callback
// of the pooled call API; nil when there is nothing to recycle.
func poolRelease(f *frame) func() {
	if f == nil || f.buf == nil {
		return nil
	}
	return func() { releaseFrame(f) }
}

// Err reports the client's terminal state: nil while the connection is
// usable, otherwise the first connection-fatal error (or the closed
// error after Close). Connection pools use it to route new calls away
// from a dead stripe without issuing a doomed request.
func (c *TCPClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClientClosed
	}
	return c.dead
}

// start opens the client span continuing sc, registers the call in the
// pending map and hands its frame to the writer goroutine, without
// waiting for the response: the primitive under every synchronous
// variant, and what lets a stream keep requests in flight while it
// consumes. A call that could not start is returned already failed.
func (c *TCPClient) start(sc obs.SpanContext, method string, payload []byte) *pendingCall {
	pc := &pendingCall{c: c, method: method, done: make(chan struct{})}
	pc.timeout = c.Timeout
	pc.sp = obs.Default.ContinueSpan(method, "client", sc.Trace, sc.Parent)
	if err := c.register(pc, payload); err != nil {
		pc.err = err
		close(pc.done)
		return pc
	}
	select {
	case c.sendq <- pc:
	case <-pc.done:
		// The connection died while the send queue was full: fail()
		// completes every registered call — including this one, parked
		// here before its frame ever reached the writer. Without this
		// case the caller would hang forever when no per-call timeout is
		// set. The failure is taken by wait.
	case <-c.quit:
		// Close raced the enqueue; its drain fails us (we are already
		// registered), and wait takes that.
	}
	return pc
}

// wait blocks until the call completes or its deadline passes, and
// settles it. Every failure it returns is typed:
// RemoteError for server-side failures, otherwise a CallError wrapping
// ErrCallTimeout / ErrPeerClosed / ErrBadFrame — raw io.EOF or net
// timeouts never leak. On success the pooled response frame rides
// along for callers that recycle its buffer.
func (pc *pendingCall) wait() ([]byte, *frame, error) {
	var deadline <-chan time.Time
	if pc.timeout > 0 {
		t := time.NewTimer(time.Until(pc.sp.Start.Add(pc.timeout)))
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-pc.done:
	case <-deadline:
		if pc.c.abandon(pc) {
			return nil, nil, pc.settle(fmt.Errorf("%w (after %v)", ErrCallTimeout, pc.timeout))
		}
		<-pc.done // completion won the race; take its result
	}
	if err := pc.settle(pc.err); err != nil {
		return nil, nil, err
	}
	return pc.resp.payload, pc.resp, nil
}

var errCallCancelled = errors.New("transport: call cancelled")

// cancel settles a started call nobody will wait for, with
// errCallCancelled: it leaves the pending map like a timed-out call (a
// frame still queued is dropped unwritten, a late response is discarded
// by correlation ID), and a response that already arrived is recycled.
func (pc *pendingCall) cancel() {
	if !pc.c.abandon(pc) {
		<-pc.done
		if pc.resp != nil {
			releaseFrame(pc.resp)
		}
	}
	pc.settle(errCallCancelled) //mits:allow errdrop the caller is already failing with its own error
}

// settle ends the call's span, records the per-method metrics and
// types the error: a RemoteError passes through, any other failure is
// wrapped in a CallError.
func (pc *pendingCall) settle(err error) error {
	var remote *RemoteError
	if err != nil && !errors.As(err, &remote) {
		err = &CallError{Method: pc.method, Err: err}
	}
	pc.sp.End(err)
	obs.Observe("transport_client_latency_ns", pc.sp.Dur, "method", pc.method)
	obs.GetCounter("transport_client_rpcs_total", "method", pc.method).Inc()
	if err != nil {
		obs.GetCounter("transport_client_errors_total", "method", pc.method).Inc()
	}
	return err
}

// register allocates the call's correlation ID and parks it in the
// pending map, failing fast on a closed or dead client.
func (c *TCPClient) register(pc *pendingCall, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClientClosed
	}
	if c.dead != nil {
		return c.dead
	}
	c.nextCorr++
	corr := c.nextCorr
	pc.req = &frame{
		kind: kindRequest, id: corr, corr: corr, method: pc.method, payload: payload,
		trace: uint64(pc.sp.Trace), span: uint64(pc.sp.ID),
	}
	c.pending[corr] = pc
	return nil
}

// abandon removes a timed-out or cancelled call from the pending map,
// reporting whether the entry was still there (false means a
// completion won the race — or the call never started — and the caller
// must take its result instead).
func (c *TCPClient) abandon(pc *pendingCall) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pc.req == nil || c.pending[pc.req.corr] != pc {
		return false
	}
	pc.abandoned.Store(true) // the writer skips the frame if it is still queued
	delete(c.pending, pc.req.corr)
	return true
}

// take claims the pending call for a correlation ID, or nil when no
// call is waiting (timed out, or never ours).
func (c *TCPClient) take(corr uint64) *pendingCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	pc := c.pending[corr]
	delete(c.pending, corr)
	return pc
}

// writeLoop is the writer goroutine: it serializes request frames onto
// the connection in enqueue order, coalescing everything queued at
// each wakeup into one vectored write — a pipelined burst of N calls
// costs ~1 write syscall, not N. The write deadline is stamped once
// per batch (and not at all when Timeout is zero), not per frame: the
// time.Now + setsockopt pair was itself a measurable per-frame cost.
// A write failure is connection-fatal (framing state unknown), failing
// every pending call.
func (c *TCPClient) writeLoop() {
	defer c.wg.Done()
	w := newBatchWriter(c.conn)
	defer w.release()
	for {
		select {
		case pc := <-c.sendq:
			if c.Timeout > 0 {
				_ = c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
			}
		drain:
			for {
				if !pc.abandoned.Load() { // timed out while queued; its response would be dropped anyway
					if err := w.add(pc.req); err != nil {
						c.fail(classifyIOErr(err))
						return
					}
				}
				select {
				case pc = <-c.sendq:
				default:
					break drain
				}
			}
			if err := w.flush(); err != nil {
				c.fail(classifyIOErr(err))
				return
			}
		case <-c.quit:
			return
		}
	}
}

// readLoop is the reader-dispatch goroutine: it decodes response
// frames as they arrive — in whatever order the server completed them
// — and hands each to its pending call by correlation ID. Response
// bodies come from the frame pool: a caller that calls release
// recycles the buffer when done decoding, one that drops it lets it
// fall to the GC (putBuf is never called on it, so the pool stays coherent
// either way). Frames nobody is waiting for are recycled on the spot.
// A read or decode failure is connection-fatal.
func (c *TCPClient) readLoop() {
	defer c.wg.Done()
	// One buffered reader amortizes the 2 read syscalls per frame
	// (header + body) across a coalesced server flush.
	br := bufio.NewReaderSize(c.conn, batchScratchSize)
	for {
		select {
		case <-c.quit:
			return
		default:
		}
		resp, err := readFrame(br, true)
		if err != nil {
			c.fail(classifyIOErr(err))
			return
		}
		if resp.kind != kindResponse {
			kind := resp.kind
			releaseFrame(resp)
			c.fail(fmt.Errorf("%w: unexpected frame kind %d", ErrBadFrame, kind))
			return
		}
		pc := c.take(resp.corr)
		if pc == nil {
			// Nobody is waiting: a call that timed out earlier, or a
			// confused peer. Correlation IDs make late responses
			// harmless — count, recycle, drop, keep the connection.
			obsUnknownCorr.Inc()
			releaseFrame(resp)
			continue
		}
		if resp.errText != "" {
			pc.err = &RemoteError{Method: pc.method, Text: resp.errText}
			releaseFrame(resp) // the error text is already copied out
		} else {
			pc.resp = resp
		}
		close(pc.done)
	}
}

// fail marks the client dead with its first terminal error, closes the
// connection (waking whichever loop is still blocked on it), and fails
// every pending call. The pending map is drained exactly once per
// batch: completion happens only via map removal, so fail, take and
// abandon can never double-complete a call.
func (c *TCPClient) fail(cause error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = cause
	}
	cause = c.dead
	drained := c.pending
	c.pending = make(map[uint64]*pendingCall)
	c.mu.Unlock()
	c.closeConn() //mits:allow errdrop the conn is already failing; Close reports the close error
	for _, pc := range drained {
		pc.err = cause
		close(pc.done)
	}
}

// closeConn closes the connection exactly once, remembering the first
// close's error for Close to return.
func (c *TCPClient) closeConn() error {
	c.connOnce.Do(func() {
		c.connErr = c.conn.Close() //mits:nolock write is published by connOnce.Do
	})
	return c.connErr //mits:nolock connOnce.Do orders the write before this read
}

// Close implements Client. It is idempotent and safe to call
// concurrently (and while calls are in flight): the first call closes
// the quit channel and drains the pending-call map exactly once,
// failing every in-flight call with a typed error; every call returns
// the first connection close's error after the writer and reader
// goroutines have drained.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	first := !c.closed
	c.closed = true
	c.mu.Unlock()
	if first {
		close(c.quit)
		c.fail(errClientClosed)
	}
	err := c.closeConn()
	c.wg.Wait()
	return err
}

// classifyIOErr maps raw I/O failures onto the typed transport errors.
func classifyIOErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrBadFrame):
		return err // already typed
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe), errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE):
		return fmt.Errorf("%w (%v)", ErrPeerClosed, err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w (%v)", ErrCallTimeout, err)
	}
	return err
}

// RemoteError is a server-side failure surfaced to the client.
type RemoteError struct {
	Method string
	Text   string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Text)
}

package faults

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrPartitioned is returned for dials and I/O cut by a network
// partition.
var ErrPartitioned = errors.New("faults: network partitioned")

// ErrInjected marks failures manufactured by the injector (truncated
// writes, synthetic RPC errors), so tests can tell injected faults
// from real bugs.
var ErrInjected = errors.New("faults: injected fault")

// tempError is a temporary net.Error, the kind an accept loop must
// back off on rather than die.
type tempError struct{ msg string }

func (e tempError) Error() string   { return e.msg }
func (e tempError) Timeout() bool   { return false }
func (e tempError) Temporary() bool { return true }

// Conn wraps a net.Conn, injecting the scenario's faults. Write
// decisions are drawn per Write call; read stalls per first Read after
// a Write (one logical response), keeping the decision stream
// independent of TCP segmentation.
type Conn struct {
	net.Conn
	in *Injector

	mu    sync.Mutex
	armed bool // a Write happened; next Read draws the stall decision
}

// WrapConn wraps c with the injector's fault behaviour.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	return &Conn{Conn: c, in: in}
}

// Write injects latency, drops, corruption and truncation.
func (c *Conn) Write(p []byte) (int, error) {
	if c.in.partitioned("write") {
		return 0, ErrPartitioned
	}
	delay, act, pos := c.in.writePlan(len(p))
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay) //mits:allow sleepless injected wire latency is a real wall-clock wait
	}
	switch act {
	case writeDrop:
		// Swallowed: the caller believes the bytes left, the peer
		// never sees them.
		return len(p), nil
	case writeCorrupt:
		buf := make([]byte, len(p))
		copy(buf, p)
		if len(buf) > 0 {
			buf[pos] ^= 0xFF
		}
		return c.Conn.Write(buf)
	case writeTrunc:
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return n, errors.Join(ErrInjected, errors.New("faults: write truncated, connection severed"))
	}
	return c.Conn.Write(p)
}

// Read injects the stall decided for this logical response.
func (c *Conn) Read(p []byte) (int, error) {
	if c.in.partitioned("read") {
		return 0, ErrPartitioned
	}
	c.mu.Lock()
	armed := c.armed
	c.armed = false
	c.mu.Unlock()
	if armed {
		if stall := c.in.readStall(); stall > 0 {
			time.Sleep(stall) //mits:allow sleepless injected peer stall is a real wall-clock wait
		}
	}
	return c.Conn.Read(p)
}

// listener wraps a net.Listener with accept-error injection.
type listener struct {
	net.Listener
	in *Injector
}

// WrapListener wraps l so Accept fails (with a temporary error) per
// the scenario's AcceptErrProb. Accepted connections pass through
// unwrapped: server-side reads are concurrent, and injecting there
// would make the decision stream scheduling-dependent.
func (in *Injector) WrapListener(l net.Listener) net.Listener {
	return &listener{Listener: l, in: in}
}

// Accept waits for a real connection and only then draws the fault:
// an injected failure closes the just-accepted connection (the peer
// sees a reset) and surfaces a temporary error to the accept loop.
// Drawing after the connection arrives keeps the decision stream
// keyed to the deterministic dial sequence — an idle accept loop
// consumes no randomness.
func (l *listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if ierr := l.in.acceptErr(); ierr != nil {
		conn.Close()
		return nil, ierr
	}
	return conn, nil
}

// dialTimeout bounds the injector's TCP connect. The chaos targets
// are in-process listeners, so any connect that takes seconds is a
// harness bug, not a scenario — fail it instead of hanging the suite
// for the OS connect default.
const dialTimeout = 10 * time.Second

// Dial connects to addr through the injector: refused while
// partitioned, otherwise returning a fault-wrapped connection.
func (in *Injector) Dial(addr string) (net.Conn, error) {
	if err := in.dialCheck(); err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return in.WrapConn(c), nil
}

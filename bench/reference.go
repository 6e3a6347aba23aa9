package bench

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// The hosts this benchmark runs on are small shared virtual machines,
// and their speed wanders: a fixed single-threaded loop here runs 10 to
// 30 % faster or slower from one quarter-second to the next, and from
// one half-minute to the next, with nothing else in the guest running.
// A wall-clock number taken on such a host says as much about the
// host's mood as about MITS.
//
// So the benchmark measures the host as it goes. Between every two
// short windows of load it runs a burst of this reference loop — fixed
// work built from the standard library alone, shaped like the system's
// own (a small request and a 64 KB reply over loopback TCP between two
// goroutines, a digest of the reply, a gob round trip of a small
// record) — and every time and rate a window yields is scaled by the
// host's speed around it, relative to referenceNominal. A reported
// value therefore reads "as on a host that runs the reference loop at
// exactly the nominal speed"; loadgen.host_speed says how the real one
// compared. The loop shares no code with MITS, so no change to the
// program can move it.
type reference struct {
	ln   net.Listener
	conn net.Conn
	done chan struct{} // closed when the echo goroutine has exited
	req  []byte
	buf  []byte
	rec  referenceRecord
}

// referenceNominal is the speed, in loops per second, that reported
// values are scaled to: about what the reference hosts manage.
const referenceNominal = 15000.0

const (
	referenceRequest = 32
	referenceReply   = 64 << 10
)

type referenceRecord struct {
	Name string
	Tags []string
	Data []byte
}

func newReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: reference loop: %w", err)
	}
	r := &reference{ln: ln, done: make(chan struct{}),
		req: make([]byte, referenceRequest), buf: make([]byte, referenceReply),
		rec: referenceRecord{Name: "reference", Tags: []string{"a", "b", "c"}, Data: make([]byte, 512)}}
	go r.echo()
	r.conn, err = net.DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("bench: reference loop: %w", err), ln.Close())
	}
	return r, nil
}

// echo answers every request with a reply-sized block until the
// connection (or, before any connection, the listener) is closed.
func (r *reference) echo() {
	defer close(r.done)
	c, err := r.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	req := make([]byte, referenceRequest)
	reply := make([]byte, referenceReply)
	for {
		if _, err := io.ReadFull(c, req); err != nil {
			return
		}
		copy(reply, req)
		if _, err := c.Write(reply); err != nil {
			return
		}
	}
}

// burst runs the loop for d and reports loops per second.
func (r *reference) burst(d time.Duration) (float64, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		if _, err := r.conn.Write(r.req); err != nil {
			return 0, fmt.Errorf("bench: reference loop: %w", err)
		}
		if _, err := io.ReadFull(r.conn, r.buf); err != nil {
			return 0, fmt.Errorf("bench: reference loop: %w", err)
		}
		digest(r.buf)
		var wire bytes.Buffer
		if err := gob.NewEncoder(&wire).Encode(r.rec); err != nil {
			return 0, fmt.Errorf("bench: reference loop: %w", err)
		}
		var back referenceRecord
		if err := gob.NewDecoder(&wire).Decode(&back); err != nil {
			return 0, fmt.Errorf("bench: reference loop: %w", err)
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// close stops the echo goroutine and waits for it.
func (r *reference) close() error {
	err := errors.Join(r.conn.Close(), r.ln.Close())
	<-r.done
	return err
}

// normalise scales a value measured while the host ran at speed (1 =
// nominal) to what it would read at nominal speed: times stretch with a
// fast host, rates shrink, and counts, shares and sizes do not care.
func normalise(v float64, unit string, speed float64) float64 {
	switch unit {
	case "ns", "us", "ms", "s":
		return v * speed
	case "1/s", "MB/s":
		return v / speed
	}
	return v
}

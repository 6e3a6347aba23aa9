package faults

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// pipePeer reads everything the far end of a net.Pipe receives.
func pipePeer(t *testing.T, c net.Conn) <-chan []byte {
	t.Helper()
	out := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		tmp := make([]byte, 1024)
		for {
			n, err := c.Read(tmp)
			buf.Write(tmp[:n])
			if err != nil {
				break
			}
		}
		out <- buf.Bytes()
	}()
	return out
}

func TestWriteDropSwallowsBytes(t *testing.T) {
	in := NewInjector(Scenario{DropProb: 1}, 1)
	a, b := net.Pipe()
	got := pipePeer(t, b)
	w := in.WrapConn(a)
	n, err := w.Write([]byte("hello"))
	if err != nil || n != 5 {
		t.Fatalf("dropped write returned (%d, %v), want (5, nil)", n, err)
	}
	a.Close()
	if data := <-got; len(data) != 0 {
		t.Fatalf("peer received %q through a dropping conn", data)
	}
	evs := in.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %v, want one drop", evs)
	}
}

func TestWriteCorruptFlipsOneByte(t *testing.T) {
	in := NewInjector(Scenario{CorruptProb: 1}, 2)
	a, b := net.Pipe()
	got := pipePeer(t, b)
	w := in.WrapConn(a)
	msg := []byte("hello world")
	if _, err := w.Write(msg); err != nil {
		t.Fatal(err)
	}
	a.Close()
	data := <-got
	if len(data) != len(msg) {
		t.Fatalf("peer got %d bytes, want %d", len(data), len(msg))
	}
	diff := 0
	for i := range msg {
		if data[i] != msg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	if !bytes.Equal(msg, []byte("hello world")) {
		t.Fatal("corruption mutated the caller's buffer")
	}
}

func TestWriteTruncSeversConn(t *testing.T) {
	in := NewInjector(Scenario{TruncProb: 1}, 3)
	a, b := net.Pipe()
	got := pipePeer(t, b)
	w := in.WrapConn(a)
	_, err := w.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("truncated write error = %v, want ErrInjected", err)
	}
	if data := <-got; len(data) != 5 {
		t.Fatalf("peer got %d bytes, want the truncated 5", len(data))
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("conn still writable after injected severance")
	}
}

func TestReadStallDelaysFirstReadAfterWrite(t *testing.T) {
	const stall = 30 * time.Millisecond
	in := NewInjector(Scenario{StallProb: 1, StallFor: stall}, 4)
	a, b := net.Pipe()
	w := in.WrapConn(a)
	go func() {
		buf := make([]byte, 8)
		b.Read(buf)
		b.Write([]byte("resp"))
	}()
	if _, err := w.Write([]byte("req")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 8)
	if _, err := w.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < stall {
		t.Fatalf("stalled read returned after %v, want ≥ %v", d, stall)
	}
}

func TestPartitionRefusesDialAndIO(t *testing.T) {
	in := NewInjector(Scenario{Partitioned: true}, 5)
	if _, err := in.Dial("127.0.0.1:1"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned dial error = %v, want ErrPartitioned", err)
	}
	a, _ := net.Pipe()
	w := in.WrapConn(a)
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned write error = %v, want ErrPartitioned", err)
	}
	in.SetPartitioned(false)
	go a.Close() // unblock: pipe has no buffer, the healed write needs a reader or close
	w.Write([]byte("x"))
}

func TestAcceptErrIsTemporary(t *testing.T) {
	in := NewInjector(Scenario{AcceptErrProb: 1}, 6)
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	l := in.WrapListener(base)
	conn, err := net.Dial("tcp", base.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, aerr := l.Accept()
	var ne net.Error
	if !errors.As(aerr, &ne) || !ne.Temporary() { //nolint:staticcheck // Temporary is the accept-loop contract
		t.Fatalf("injected accept error %v is not a temporary net.Error", aerr)
	}
	// The dialed peer was closed by the injected failure: its next read
	// reports EOF/reset rather than blocking.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, rerr := conn.Read(make([]byte, 1)); rerr == nil {
		t.Fatal("peer connection survived an injected accept failure")
	}
}

// TestReplayDeterminism drives two injectors with the same seed and
// scenario through the same operation sequence and requires identical
// event logs — the invariant that makes chaos runs reproducible.
func TestReplayDeterminism(t *testing.T) {
	scen := Scenario{
		Latency: time.Microsecond, Jitter: time.Microsecond,
		DropProb: 0.3, CorruptProb: 0.2, TruncProb: 0.1,
		StallProb: 0.25, StallFor: time.Microsecond,
		AcceptErrProb: 0.4,
	}
	run := func() []string {
		in := NewInjector(scen, 42)
		for i := 0; i < 50; i++ {
			in.writePlan(100)
			in.readStall()
			in.acceptErr()
		}
		return in.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults injected at these probabilities")
	}
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

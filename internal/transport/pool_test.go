package transport

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mits/internal/lint/leaktest"
	"mits/internal/obs"
)

// TestPoolStripesRoundRobin pins the striping itself: sequential calls
// rotate through every connection, so independent callers stop
// funneling through one writer goroutine and one pending-call map.
func TestPoolStripesRoundRobin(t *testing.T) {
	leaktest.Check(t)
	srv, addr := pipelineServer(t, nil, nil)
	defer srv.Close()
	pool, err := DialTCPPool(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const calls = 8
	for i := 0; i < calls; i++ {
		if _, err := CallInTrace(pool, obs.SpanContext{}, "echo", []byte{byte(i)}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for i, c := range pool.stripes {
		c.mu.Lock()
		n := c.nextCorr
		c.mu.Unlock()
		if n != calls/4 {
			t.Fatalf("stripe %d carried %d calls, want %d", i, n, calls/4)
		}
	}
}

// TestPoolStripeFailureIsolation is the pool's failure-domain contract:
// with 64 callers parked across 4 stripes, killing one connection fails
// exactly that stripe's 16 in-flight calls with ErrPeerClosed — the
// other 48 never notice, the pool stays usable, and new calls skip the
// dead stripe. Runs under `make racestress`.
func TestPoolStripeFailureIsolation(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	var parked atomic.Int64
	srv, addr := pipelineServer(t, release, &parked)
	defer srv.Close()
	pool, err := DialTCPPool(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const callers = 64
	perStripe := callers / 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := CallInTrace(pool, obs.SpanContext{}, "block", []byte("held"))
			errs <- err
		}()
	}
	waitFor(t, func() bool { return parked.Load() == callers })

	// Peer-death on one stripe: close the raw conn underneath the
	// client, as a server crash would.
	pool.stripes[1].conn.Close()

	// Exactly the dead stripe's calls fail, and with the typed error.
	for i := 0; i < perStripe; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrPeerClosed) {
				t.Fatalf("stripe death returned %v, want ErrPeerClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d calls on the dead stripe failed", i, perStripe)
		}
	}

	// The pool is still healthy and routes new calls around the corpse.
	if err := pool.Err(); err != nil {
		t.Fatalf("pool reported dead with 3 live stripes: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := CallInTrace(pool, obs.SpanContext{}, "echo", []byte{byte(i)}); err != nil {
			t.Fatalf("call after stripe death: %v", err)
		}
	}

	// The survivors complete untouched.
	close(release)
	for i := 0; i < callers-perStripe; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("call on a live stripe failed: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d surviving calls completed", i, callers-perStripe)
		}
	}
}

// TestPoolAllStripesDead pins the discard handshake with the retry
// layer: only when every stripe has died does Err() go non-nil, which
// is what tells RetryClient.discardIfDead to redial a whole fresh pool.
func TestPoolAllStripesDead(t *testing.T) {
	leaktest.Check(t)
	srv, addr := pipelineServer(t, nil, nil)
	defer srv.Close()
	pool, err := DialTCPPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := CallInTrace(pool, obs.SpanContext{}, "echo", []byte("up")); err != nil {
		t.Fatal(err)
	}

	pool.stripes[0].conn.Close()
	waitFor(t, func() bool { return pool.stripes[0].Err() != nil })
	if pool.Err() != nil {
		t.Fatal("pool reported dead with a live stripe")
	}
	pool.stripes[1].conn.Close()
	waitFor(t, func() bool { return pool.stripes[1].Err() != nil })
	if !errors.Is(pool.Err(), ErrPeerClosed) {
		t.Fatalf("all-dead pool reported %v, want ErrPeerClosed", pool.Err())
	}
	if _, err := CallInTrace(pool, obs.SpanContext{}, "echo", []byte("down")); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("call on all-dead pool returned %v, want ErrPeerClosed", err)
	}
}

// TestPoolPickAvoidsStreamingStripes: while a content stream holds a
// stripe, every other call goes to the stripes free of streams (so an
// interactive call never queues behind the stream's chunks while it
// need not), a second stream takes a free stripe, and a dead stripe is
// never picked however few streams it holds. (Without streams the pool
// is plain round-robin: TestPoolStripesRoundRobin.)
func TestPoolPickAvoidsStreamingStripes(t *testing.T) {
	leaktest.Check(t)
	mux := NewMux()
	RegisterStore(mux, streamStore(t, 4*DefaultStreamChunkBytes))
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := DialTCPPool(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	holding := func() (held []*TCPClient) {
		for _, c := range pool.stripes {
			for i := c.streams.Load(); i > 0; i-- {
				held = append(held, c)
			}
		}
		return held
	}
	picks := func(n int) map[*TCPClient]int {
		seen := map[*TCPClient]int{}
		for i := 0; i < n; i++ {
			seen[pool.pick()]++
		}
		return seen
	}
	db := DBClient{C: pool}
	chunk := 0
	_, err = db.GetContentStream(streamRef, func([]byte) error {
		defer func() { chunk++ }()
		if chunk != 1 {
			return nil
		}
		outer := holding()
		if len(outer) != 1 {
			t.Fatalf("%d stripes held mid-stream, want 1", len(outer))
		}
		if seen := picks(30); seen[outer[0]] != 0 || len(seen) != 2 {
			t.Errorf("picks beside one stream: %d on its stripe, %d stripes used; want 0 and 2", seen[outer[0]], len(seen))
		}
		// A second stream takes a stripe of its own ...
		_, err := db.GetContentStream(streamRef, func([]byte) error {
			if both := holding(); len(both) != 2 || both[0] == both[1] {
				t.Errorf("two streams hold %d stripes (same: %v), want two different ones", len(both), len(both) == 2 && both[0] == both[1])
			}
			return nil
		})
		if err != nil {
			return err
		}
		// ... and a dead stripe is not chosen for being free of streams.
		for _, c := range pool.stripes {
			if c != outer[0] {
				c.conn.Close()
				waitFor(t, func() bool { return c.Err() != nil })
			}
		}
		if seen := picks(6); seen[outer[0]] != 6 {
			t.Errorf("with every other stripe dead, %d of 6 picks took the live streaming stripe", seen[outer[0]])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if held := holding(); len(held) != 0 {
		t.Fatalf("%d stripes still held after the streams returned", len(held))
	}
}

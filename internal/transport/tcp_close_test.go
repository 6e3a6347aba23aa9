package transport

import (
	"sync"
	"testing"

	"mits/internal/lint/leaktest"
	"mits/internal/obs"
)

func echoHandler() Handler {
	return HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		return payload, nil
	})
}

// TestTCPServerCloseIdempotent checks that Close can be called any
// number of times, concurrently, and that every call drains and
// returns the first call's listener error.
func TestTCPServerCloseIdempotent(t *testing.T) {
	leaktest.Check(t)
	s := NewTCPServer(echoHandler())
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Errorf("Close after close: %v", err)
	}
}

// TestTCPServerListenCloseRace is the regression test for the
// wg.Add-after-unlock ordering bug: Listen used to register the accept
// loop with the WaitGroup only after releasing the mutex, so a
// concurrent Close could wg.Wait past a zero counter and return while
// the accept loop was still starting. Run with -race.
func TestTCPServerListenCloseRace(t *testing.T) {
	leaktest.Check(t)
	for i := 0; i < 100; i++ {
		s := NewTCPServer(echoHandler())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Either outcome is fine: bound first, or rejected by Close.
			if _, err := s.Listen("127.0.0.1:0"); err != nil {
				return
			}
		}()
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		wg.Wait()
		// After both return the server must be fully drained and closed.
		if _, err := s.Listen("127.0.0.1:0"); err == nil {
			t.Fatal("Listen succeeded on a closed server")
		}
	}
}

// TestTCPServerCloseDrainsConnections checks Close unblocks serving
// goroutines that are parked in readFrame on live client connections.
func TestTCPServerCloseDrainsConnections(t *testing.T) {
	leaktest.Check(t)
	s := NewTCPServer(echoHandler())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*TCPClient, 3)
	for i := range clients {
		c, err := DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		if got, err := CallInTrace(c, obs.SpanContext{}, "echo", []byte("ping")); err != nil || string(got) != "ping" {
			t.Fatalf("Call = %q, %v", got, err)
		}
	}
	// The three serveConn goroutines are now blocked reading the next
	// request; Close must terminate them all or wg.Wait hangs the test.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		if _, err := CallInTrace(c, obs.SpanContext{}, "echo", nil); err == nil {
			t.Error("Call succeeded against a closed server")
		}
		if err := c.Close(); err != nil {
			t.Errorf("client Close: %v", err)
		}
	}
}

// TestTCPClientCloseIdempotent checks repeated and concurrent client
// closes all return the first close's result.
func TestTCPClientCloseIdempotent(t *testing.T) {
	leaktest.Check(t)
	s := NewTCPServer(echoHandler())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Errorf("Close after close: %v", err)
	}
}

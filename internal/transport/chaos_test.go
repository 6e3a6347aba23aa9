package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"mits/internal/faults"
	"mits/internal/mediastore"
	"mits/internal/obs"
)

// isTypedErr reports whether err is one of the resilience layer's
// inspectable failures — the liveness contract: anything else is a
// leak of a raw carrier error.
func isTypedErr(err error) bool {
	var ce *CallError
	var re *RemoteError
	return errors.As(err, &ce) || errors.As(err, &re)
}

// chaosStore is a one-document store mux for the fault matrix.
func chaosStore(t *testing.T) *Mux {
	t.Helper()
	store := mediastore.New()
	if _, err := store.PutDocument("atm-course", "ATM", "text", []byte("course body")); err != nil {
		t.Fatal(err)
	}
	mux := NewMux()
	RegisterStore(mux, store)
	return mux
}

// TestResilientClientFaultMatrix drives the navigator-side resilient
// client stack (breaker over retry over deadline-bounded TCP calls,
// DESIGN §9) through one failure mode per scenario, each injected by a
// seeded faults.Injector on both the server's listener and the
// client's dials. Every call must end live: success, or a typed
// CallError/RemoteError — never a hang, never a raw io.EOF. The clean
// path must serve every call, and the faulty ones must have made the
// retry layer work.
func TestResilientClientFaultMatrix(t *testing.T) {
	const (
		calls       = 12
		callTimeout = 50 * time.Millisecond
		connTimeout = 200 * time.Millisecond
	)
	// The backoffs are recorded, not slept: 84 calls waiting out the
	// deployed 5–100ms schedule would only slow the matrix down.
	policy := RetryPolicy{Attempts: 3, Sleep: func(time.Duration) {}}
	retries := obs.GetCounter("transport_retries_total", "method", MethodListDocs)
	retriesBefore := retries.Value()
	for i, sc := range []struct {
		name string
		scen faults.Scenario
	}{
		{"clean", faults.Scenario{}},
		{"slow", faults.Scenario{Latency: 3 * time.Millisecond, Jitter: 2 * time.Millisecond}},
		{"lossy", faults.Scenario{DropProb: 0.3}},
		{"stall", faults.Scenario{StallProb: 0.4, StallFor: 120 * time.Millisecond}},
		{"corrupt", faults.Scenario{CorruptProb: 0.3}},
		{"truncate", faults.Scenario{TruncProb: 0.3}},
		{"flaky-accept", faults.Scenario{AcceptErrProb: 0.5}},
	} {
		seed := uint64(0xC0FFEE + 101*i)
		srv := NewTCPServer(chaosStore(t))
		srv.ConnTimeout = connTimeout
		inj := faults.NewInjector(sc.scen, seed)
		base, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(inj.WrapListener(base)); err != nil {
			base.Close()
			t.Fatal(err)
		}
		addr := base.Addr().String()
		dial := func() (Client, error) {
			conn, err := inj.Dial(addr)
			if err != nil {
				return nil, err
			}
			c := NewTCPClient(conn)
			c.Timeout = callTimeout
			return c, nil
		}
		db, _ := NewResilientDBClient("content-server", dial, policy, seed)

		ok := 0
		for c := 0; c < calls; c++ {
			_, err := db.GetListDoc()
			switch {
			case err == nil:
				ok++
			case !isTypedErr(err):
				t.Errorf("%s: call %d: untyped error %T: %v", sc.name, c, err, err)
			}
		}
		if sc.name == "clean" && ok != calls {
			t.Errorf("clean: %d/%d calls ok", ok, calls)
		}
		db.C.Close()
		srv.Close()
	}
	if retries.Value() == retriesBefore {
		t.Error("no retries recorded across the fault matrix")
	}
}

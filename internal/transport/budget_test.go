package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mits/internal/obs"
)

// failDialer always fails, so every attempt is a dial retry — the
// cheapest way to make a RetryClient want all of its attempts.
func failDialer() (Client, error) { return nil, errors.New("boom") }

// TestRetryBudgetCapsAmplification: with a dry shared budget, N clients
// failing simultaneously each make exactly one attempt — the retry
// storm a per-call policy would unleash is flattened to first tries.
func TestRetryBudgetCapsAmplification(t *testing.T) {
	budget := NewRetryBudget(2, 0.001) // 2 tokens, effectively no refill
	fixed := time.Now()
	budget.SetClock(func() time.Time { return fixed })

	policy := RetryPolicy{
		Attempts: 4,
		Budget:   budget,
		Sleep:    func(time.Duration) {},
	}
	before := obs.GetCounter("transport_dial_errors_total").Value()
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rc := NewRetryClient(failDialer, policy, seed)
			defer rc.Close()
			if _, err := CallInTrace(rc, obs.SpanContext{}, MethodListDocs, nil); err == nil {
				t.Error("call against a dead dialer succeeded")
			}
		}(uint64(i))
	}
	wg.Wait()
	attempts := obs.GetCounter("transport_dial_errors_total").Value() - before
	// 8 first attempts plus at most the 2 budgeted retries; without the
	// budget this would be callers*Attempts = 32.
	if want := int64(callers + 2); attempts > want {
		t.Fatalf("dial attempts = %d, budget should cap them at %d", attempts, want)
	}
	if attempts < callers {
		t.Fatalf("dial attempts = %d, every caller gets its first try", attempts)
	}
}

// TestRetryBudgetRefills: tokens come back at the configured rate, so a
// quiet period restores retry capacity.
func TestRetryBudgetRefills(t *testing.T) {
	now := time.Unix(1000, 0)
	budget := NewRetryBudget(5, 2).SetClock(func() time.Time { return now })
	for i := 0; i < 5; i++ {
		if !budget.Allow() {
			t.Fatalf("token %d denied with a full bucket", i)
		}
	}
	if budget.Allow() {
		t.Fatal("empty bucket granted a token")
	}
	now = now.Add(time.Second) // 2 tokens refill
	if !budget.Allow() || !budget.Allow() {
		t.Fatal("refilled tokens denied")
	}
	if budget.Allow() {
		t.Fatal("bucket granted more than the refill")
	}
}

// TestRetryBudgetExhaustionCounted: denials surface in
// transport_retry_budget_exhausted_total.
func TestRetryBudgetExhaustionCounted(t *testing.T) {
	c := obs.GetCounter("transport_retry_budget_exhausted_total")
	before := c.Value()
	fixed := time.Now()
	budget := NewRetryBudget(1, 0.001).SetClock(func() time.Time { return fixed })
	budget.Allow()
	budget.Allow() // denied
	budget.Allow() // denied
	if got := c.Value() - before; got != 2 {
		t.Fatalf("exhausted counter moved by %d, want 2", got)
	}
}

// TestBreakerStateGauge: the breaker's position is mirrored into the
// breaker_state{peer} gauge on every transition, so routers and /metrics
// see open circuits directly.
func TestBreakerStateGauge(t *testing.T) {
	g := obs.GetGauge("breaker_state", "peer", "gauge-peer")
	br := NewBreaker("gauge-peer", 2, 50*time.Millisecond)
	if got := g.Value(); got != int64(BreakerClosed) {
		t.Fatalf("fresh breaker gauge = %d, want closed (%d)", got, BreakerClosed)
	}
	boom := errors.New("boom")
	br.Record(boom)
	br.Record(boom)
	if got := g.Value(); got != int64(BreakerOpen) {
		t.Fatalf("tripped breaker gauge = %d, want open (%d)", got, BreakerOpen)
	}
	clock := time.Now()
	br.SetClock(func() time.Time { return clock.Add(time.Second) })
	if err := br.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if got := g.Value(); got != int64(BreakerHalfOpen) {
		t.Fatalf("probing breaker gauge = %d, want half-open (%d)", got, BreakerHalfOpen)
	}
	br.Record(nil)
	if got := g.Value(); got != int64(BreakerClosed) {
		t.Fatalf("healed breaker gauge = %d, want closed (%d)", got, BreakerClosed)
	}
}

// TestRequestKey pins the routing-key extraction the cluster router
// depends on: keyed methods yield the name/ref, fan-out methods yield
// ErrUnkeyedMethod.
func TestRequestKey(t *testing.T) {
	get, err := EncodeGetDoc("course-a")
	if err != nil {
		t.Fatal(err)
	}
	if key, err := RequestKey(MethodGetDoc, get); err != nil || key != "course-a" {
		t.Fatalf("GetDoc key = %q, %v", key, err)
	}
	content, err := EncodeGetContent("store/x.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if key, err := RequestKey(MethodGetContent, content); err != nil || key != "store/x.mpg" {
		t.Fatalf("GetContent key = %q, %v", key, err)
	}
	if _, err := RequestKey(MethodListDocs, nil); !errors.Is(err, ErrUnkeyedMethod) {
		t.Fatalf("ListDocs key err = %v, want ErrUnkeyedMethod", err)
	}
}

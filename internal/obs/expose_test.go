package obs

import (
	"testing"
	"time"

	"mits/internal/lint/leaktest"
)

// TestRuntimeSamplerSharedAcrossStatsServers is the regression for GC
// pauses being double-counted: a process serving two stats endpoints
// over the Default registry must run ONE runtime sampler, shared by
// refcount — it survives the first Close and stops after the last.
func TestRuntimeSamplerSharedAcrossStatsServers(t *testing.T) {
	refs := func() int {
		Default.samplerMu.Lock()
		defer Default.samplerMu.Unlock()
		if (Default.samplerStop != nil) != (Default.samplerRefs > 0) {
			t.Fatalf("sampler running=%v but refs=%d", Default.samplerStop != nil, Default.samplerRefs)
		}
		return Default.samplerRefs
	}
	base := refs()
	s1, err := ServeStats("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ServeStats("127.0.0.1:0", nil)
	if err != nil {
		s1.Close()
		t.Fatal(err)
	}
	if got := refs(); got != base+2 {
		t.Errorf("after two ServeStats: refs = %d, want %d", got, base+2)
	}
	s1.Close()
	s1.Close() // double Close must not release twice
	if got := refs(); got != base+1 {
		t.Errorf("after first Close: refs = %d, want %d", got, base+1)
	}
	s2.Close()
	if got := refs(); got != base {
		t.Errorf("after last Close: refs = %d, want %d", got, base)
	}
}

// TestServeStatsHasServerTimeouts is the regression for the unbounded
// stats server: every http.Server timeout must be set, or a client
// that stalls mid-request pins a goroutine for the process lifetime.
func TestServeStatsHasServerTimeouts(t *testing.T) {
	s, err := ServeStats("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": s.srv.ReadHeaderTimeout,
		"ReadTimeout":       s.srv.ReadTimeout,
		"WriteTimeout":      s.srv.WriteTimeout,
		"IdleTimeout":       s.srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("stats server %s is unset: a stalled client leaks a goroutine", name)
		}
	}
}

// TestStatsServerLeavesNoGoroutine is the runtime leak check for the
// package's two goroutines: the runtime sampler's loop and the stats
// endpoint's serve loop are both gone once their owners stop them.
func TestStatsServerLeavesNoGoroutine(t *testing.T) {
	leaktest.Check(t)
	stop := startRuntimeSampler(NewRegistry(), time.Millisecond)
	s, err := ServeStats("127.0.0.1:0", nil)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	s.Close()
	stop()
}

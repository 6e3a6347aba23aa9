package a

import "sync"

// Naked cross-function access: free functions and other types' methods
// reaching into a mutex-guarded struct.

type registry struct {
	mu      sync.Mutex
	entries map[string]int
	frozen  bool
}

func (r *registry) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[name] = len(r.entries)
	r.frozen = false
}

// audit is a free function reaching into a guarded struct without the
// lock: not a method, so the everybody-else rule owns it.
func audit(r *registry) int {
	return len(r.entries) // want "r.entries is guarded by registry.mu elsewhere but accessed here without holding it"
}

// auditLocked follows the caller-holds-lock convention.
func auditLocked(r *registry) int {
	return len(r.entries)
}

// auditSafe takes the lock first.
func auditSafe(r *registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// build constructs the value in the same body: not shared yet.
func build(names []string) *registry {
	r := &registry{entries: make(map[string]int)}
	for i, n := range names {
		r.entries[n] = i
	}
	return r
}

// NewRegistry is the package's constructor.
func NewRegistry() *registry {
	return &registry{entries: make(map[string]int)}
}

// load populates a constructor-fresh value (the school/mediastore
// Load-from-snapshot shape): unshared until returned, so naked access
// is fine.
func load(names []string) *registry {
	r := NewRegistry()
	for i, n := range names {
		r.entries[n] = i
	}
	r.frozen = true
	return r
}

// other types' methods are also "naked" when they reach in.
type prober struct{ r *registry }

func (p prober) frozen() bool {
	return p.r.frozen // want "r.frozen is guarded by registry.mu elsewhere but accessed here without holding it"
}

func (p prober) frozenSafe() bool {
	p.r.mu.Lock()
	defer p.r.mu.Unlock()
	return p.r.frozen
}

// allowed carries a justification.
func peek(r *registry) bool {
	return r.frozen //mits:nolock read is a monitoring hint; staleness is fine
}

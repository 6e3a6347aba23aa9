// Package faults is the deterministic fault-injection layer of the
// chaos tests in transport and cluster; no binary links it. MITS is a
// five-site distributed system — content server, authoring site and
// navigators talk over a client–server protocol on a broadband network
// (Fig 3.5) — and the resilience mechanisms in transport and navigator
// exist precisely for the moments that network misbehaves. This package
// manufactures those moments on demand and, crucially, *reproducibly*:
// every decision (drop this write? stall this read? how much jitter?)
// is drawn from a sim.RNG stream seeded by the caller, so replaying a
// scenario with the same seed injects the identical fault sequence.
// TestReplayDeterminism asserts exactly that.
//
// The injection surface is a pair of net.Conn / net.Listener wrappers
// for the real TCP path: latency, jitter, silent drops, truncation,
// byte corruption, read stalls, accept errors, full partition.
//
// Determinism discipline: injection happens only where the operation
// sequence is itself deterministic. Conn decisions are drawn per Write
// call and per first-Read-after-a-Write (one logical response), never
// per raw Read, because TCP segmentation makes the raw read count
// nondeterministic. With a single sequential client the draw
// sequence, and therefore the event log, replays exactly.
package faults

import (
	"fmt"
	"sync"
	"time"

	"mits/internal/obs"
	"mits/internal/sim"
)

// Scenario parameterizes one fault regime. The zero value injects
// nothing (a clean network); each field enables one fault class.
// Probabilities are per injection opportunity (one Write, one logical
// response read, one Accept).
type Scenario struct {
	// Latency delays every Write; Jitter adds a uniform extra in
	// [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration

	// DropProb silently swallows a Write: the peer never sees the
	// bytes and only a deadline can complete the call.
	DropProb float64

	// CorruptProb flips one byte of a Write at a seeded position.
	CorruptProb float64

	// TruncProb writes only the first half of the data and severs the
	// connection, modelling a peer dying mid-frame.
	TruncProb float64

	// StallProb freezes the first Read after a Write for StallFor —
	// long enough to blow a caller's deadline when StallFor exceeds it.
	StallProb float64
	StallFor  time.Duration

	// AcceptErrProb makes a wrapped listener's Accept fail with a
	// temporary error, exercising server accept-loop backoff.
	AcceptErrProb float64

	// Partitioned refuses dials and fails conn I/O instantly, a full
	// network partition. Toggle at runtime with SetPartitioned to
	// model partition-then-heal.
	Partitioned bool
}

// Injector draws fault decisions for one peer from a deterministic
// stream and records every injected fault in an ordered event log.
// Safe for concurrent use; determinism of the log order is up to the
// caller's operation order (see the package comment).
type Injector struct {
	mu     sync.Mutex
	scen   Scenario
	rng    *sim.RNG
	seq    int // injection-opportunity counter, stamped into events
	events []string
}

// NewInjector builds an injector for scen whose decision stream is
// seeded by seed.
func NewInjector(scen Scenario, seed uint64) *Injector {
	return &Injector{scen: scen, rng: sim.NewRNG(seed)}
}

// SetPartitioned heals or severs the network at runtime (a
// partition-then-heal phase).
func (in *Injector) SetPartitioned(p bool) {
	in.mu.Lock()
	in.scen.Partitioned = p
	in.mu.Unlock()
}

// Events returns a copy of the injected-fault log, in injection order.
// Two runs of the same scenario, seed and caller behaviour produce
// identical logs — the replay invariant.
func (in *Injector) Events() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, len(in.events))
	copy(out, in.events)
	return out
}

// recordLocked appends one injected-fault event and counts it.
// Callers hold in.mu.
func (in *Injector) recordLocked(kind, detail string) {
	ev := fmt.Sprintf("%d:%s", in.seq, kind)
	if detail != "" {
		ev += ":" + detail
	}
	in.events = append(in.events, ev)
	obs.GetCounter("faults_injected_total", "kind", kind).Inc()
}

// draw is one probability decision; p == 0 consumes no randomness so
// disabled fault classes never perturb the stream of enabled ones.
func (in *Injector) draw(p float64) bool {
	if p <= 0 {
		return false
	}
	return in.rng.Float64() < p
}

// delayLocked computes the Latency+Jitter delay for one operation.
// Callers hold in.mu.
func (in *Injector) delayLocked() time.Duration {
	d := in.scen.Latency
	if in.scen.Jitter > 0 {
		d += time.Duration(in.rng.Float64() * float64(in.scen.Jitter))
	}
	return d
}

// writeAction is the decided fate of one Write.
type writeAction int

const (
	writePass writeAction = iota
	writeDrop
	writeCorrupt
	writeTrunc
)

// writePlan decides one Write's fate: an added delay, an action, and
// for corruption the byte position to flip (n is the write length).
func (in *Injector) writePlan(n int) (delay time.Duration, act writeAction, pos int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	delay = in.delayLocked()
	switch {
	case in.draw(in.scen.DropProb):
		in.recordLocked("drop", "")
		return delay, writeDrop, 0
	case in.draw(in.scen.CorruptProb):
		if n > 0 {
			pos = in.rng.Intn(n)
		}
		in.recordLocked("corrupt", fmt.Sprintf("@%d", pos))
		return delay, writeCorrupt, pos
	case in.draw(in.scen.TruncProb):
		in.recordLocked("trunc", "")
		return delay, writeTrunc, 0
	}
	return delay, writePass, 0
}

// readStall decides whether the next logical response read stalls,
// returning the stall duration (0 = none).
func (in *Injector) readStall() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	if in.draw(in.scen.StallProb) {
		in.recordLocked("stall", in.scen.StallFor.String())
		return in.scen.StallFor
	}
	return 0
}

// acceptErr decides whether one Accept fails, returning a temporary
// net.Error or nil.
func (in *Injector) acceptErr() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	if in.draw(in.scen.AcceptErrProb) {
		in.recordLocked("accept-err", "")
		return tempError{"faults: injected accept failure"}
	}
	return nil
}

// dialCheck rejects dials while partitioned.
func (in *Injector) dialCheck() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.scen.Partitioned {
		in.seq++
		in.recordLocked("partition", "dial")
		return ErrPartitioned
	}
	return nil
}

// partitioned reports the live partition flag, recording the fault
// when an I/O op is cut by it.
func (in *Injector) partitioned(op string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.scen.Partitioned {
		return false
	}
	in.seq++
	in.recordLocked("partition", op)
	return true
}

// Package sim provides a deterministic discrete-event simulation kernel.
//
// All time-dependent behaviour in MITS — ATM cell transmission, media
// stream pacing, courseware scenario playback — runs on virtual time so
// that tests and benchmarks are reproducible and never sleep on the wall
// clock. The kernel is a classic event-list simulator: events are ordered
// by (time, sequence number) so that simultaneous events fire in the
// order they were scheduled.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation. It deliberately mirrors time.Duration so that
// bandwidth and latency arithmetic reads naturally.
type Time int64

// Common instants.
const (
	Zero    Time = 0
	Forever Time = math.MaxInt64
)

// Duration converts a virtual instant to a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return time.Duration(t).String()
}

// Event is a scheduled callback. The callback runs exactly once, at the
// event's instant, unless the event is cancelled first.
type Event struct {
	when Time
	seq  uint64
	fn   func(now Time)
	idx  int // heap index, -1 when not queued
}

// When reports the instant the event is scheduled for.
func (e *Event) When() Time { return e.when }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*q = old[:n-1]
	return e
}

// Clock is the simulation scheduler. The zero value is ready to use.
// Clock is not safe for concurrent use; simulations are single-threaded
// and deterministic by design (parallel workloads model concurrency
// inside virtual time, not with goroutines).
type Clock struct {
	now   Time
	seq   uint64
	queue eventQueue
	fired uint64
}

// NewClock returns a clock positioned at time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Fired reports how many events have run so far.
func (c *Clock) Fired() uint64 { return c.fired }

// At schedules fn to run at instant t. Scheduling in the past (before
// Now) panics: that is always a simulation logic bug, and silently
// clamping it would hide causality violations.
func (c *Clock) At(t Time, fn func(now Time)) *Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, c.now))
	}
	e := &Event{when: t, seq: c.seq, fn: fn, idx: -1}
	c.seq++
	heap.Push(&c.queue, e)
	return e
}

// After schedules fn to run d after the current instant.
func (c *Clock) After(d time.Duration, fn func(now Time)) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return c.At(c.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and reports false.
func (c *Clock) Cancel(e *Event) bool {
	if e == nil || e.idx < 0 {
		return false
	}
	heap.Remove(&c.queue, e.idx)
	return true
}

// Step runs the single next event, advancing the clock to its instant.
// It reports false when no events remain.
func (c *Clock) Step() bool {
	if len(c.queue) == 0 {
		return false
	}
	e := heap.Pop(&c.queue).(*Event)
	c.now = e.when
	c.fired++
	e.fn(c.now)
	return true
}

// Run executes events until the queue drains, returning the final time.
func (c *Clock) Run() Time {
	for c.Step() {
	}
	return c.now
}

// RunUntil executes events with instants ≤ deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (c *Clock) RunUntil(deadline Time) {
	for len(c.queue) > 0 && c.queue[0].when <= deadline {
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// RunFor is RunUntil relative to the current instant.
func (c *Clock) RunFor(d time.Duration) { c.RunUntil(c.now.Add(d)) }

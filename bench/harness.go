package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one timed op or observation of one actor.
type sample struct {
	Kind   opKind
	Failed bool
	Ns     int64   // how long it took (from its due time, for a paced op)
	Work   float64 // the work units it delivered, in the workload's own unit
}

// recorder is an actor's private tally for one window; nothing in it is
// shared while the window runs.
type recorder struct {
	samples []sample

	// Conservation: every issued op ends up in exactly one of the
	// other three, and the harness checks that they sum to issued.
	issued, ok, failed, abandoned int64

	mismatched int64             // ops that completed but returned the wrong bytes (also counted failed)
	bytes      int64             // verified content bytes delivered to the actor
	frames     int64             // video frames whose playout deadline was scored
	missed     int64             // ... and missed
	reads      int64             // cluster reads checked against the publisher's log
	stale      int64             // ... that returned an older version than the last acknowledged one
	shard      [shardCount]int64 // ... by the shard that owns the object
	fetches    int64             // traced pass: content ops that went upstream
	refetches  int64             // ... for a ref this actor had fetched before (so the cache had evicted it)
}

// observe records a timing that is not an op: part of one (first chunk,
// chunk gap), several together (a session), or the generator's lateness.
func (r *recorder) observe(kind opKind, d time.Duration) {
	r.samples = append(r.samples, sample{Kind: kind, Ns: int64(d)})
}

// credit marks the sample just recorded as having delivered work.
func (r *recorder) credit(work float64) { r.samples[len(r.samples)-1].Work = work }

func (r *recorder) reset() { *r = recorder{samples: r.samples[:0]} }

// actor is one load goroutine: its tally, its position in its plan
// ring, and in the traced pass the client wrapper whose calls it owns.
type actor struct {
	rec     recorder
	cursor  int
	tr      *tracer
	tc      *traceClient
	fetched map[string]bool // traced pass: content refs fetched upstream so far, warm-up included
}

// next returns the actor's next planned op, wrapping around the ring.
func (a *actor) next(ops []planOp) planOp {
	op := ops[a.cursor%len(ops)]
	a.cursor++
	return op
}

// do issues one navigator-level op: it times fn, accounts the outcome
// and, in the traced pass, records the root span under a fresh trace ID
// that the actor's client wrapper stamps on every RPC fn makes. A
// paced actor passes the instant the op was due, and its latency is
// taken from then; a closed-loop actor passes the zero time.
func (a *actor) do(kind opKind, ref string, due time.Time, fn func() error) error {
	a.rec.issued++
	var trace uint64
	var calls int
	if a.tr != nil {
		trace = a.tr.ids.Add(1)
		a.tc.trace, calls = trace, a.tc.calls
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	from := start
	if !due.IsZero() {
		from = due
	}
	a.rec.samples = append(a.rec.samples, sample{Kind: kind, Failed: err != nil, Ns: int64(end.Sub(from))})
	if err != nil {
		a.rec.failed++
	} else {
		a.rec.ok++
	}
	if a.tr != nil {
		a.tc.trace = 0
		if ref != "" && a.tc.calls > calls {
			a.rec.fetches++
			if a.fetched[ref] {
				a.rec.refetches++
			}
			a.fetched[ref] = true
		}
		a.tr.record(span{
			Trace: trace, Kind: spanRoot, Failed: err != nil, Name: kind.String(), Attr: ref,
			Start: a.tr.since(start), End: a.tr.since(end),
		})
	}
	return err
}

// loop drives a closed-loop actor: step after step, each begun only when
// the one before has returned, until the window closes.
func loop(stop <-chan struct{}, step func()) {
	for {
		select {
		case <-stop:
			return
		default:
			step()
		}
	}
}

// noDue is the due time of a closed-loop op: it has none.
var noDue time.Time

// mismatch counts and describes an op whose reply failed verification.
func (a *actor) mismatch(format string, args ...any) error {
	a.rec.mismatched++
	return fmt.Errorf("bench: verification failed: "+format, args...)
}

// spinBefore is how close to a due time a paced actor stops sleeping
// and starts polling the clock: a parked goroutine wakes tens to
// hundreds of microseconds late, which is the size of the latencies
// being measured.
const spinBefore = 300 * time.Microsecond

// waitUntil parks until due or stop, whichever is first, and reports
// whether due was reached. This is the paced actors' only wait: the
// schedule is fixed (due times never depend on when earlier ops
// finished), so a stall shows as latency on later ops, not as a gap.
func waitUntil(due time.Time, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	if d := time.Until(due) - spinBefore; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return false
		}
	}
	for time.Now().Before(due) {
		select {
		case <-stop:
			return false
		default:
		}
	}
	return true
}

// catchUp bounds how long a paced actor keeps issuing its backlog after
// the window has closed.
const catchUp = time.Second

// pace drives an open-loop actor: op i is due at start + i·interval, and
// issue is called for it as soon after that as the actor is free. It
// records how late each op was issued. When the window closes the ops
// already due are still issued — a stall at the end of a window is
// latency, like any other — unless that takes longer than catchUp, in
// which case the rest of the backlog is counted as abandoned.
func (a *actor) pace(interval time.Duration, stop <-chan struct{}, issue func(due time.Time)) {
	start := time.Now()
	var closed time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if closed.IsZero() && !waitUntil(due, stop) {
			closed = time.Now()
		}
		if !closed.IsZero() {
			if due.After(closed) {
				return
			}
			if time.Since(closed) > catchUp {
				behind := int64(closed.Sub(due)/interval) + 1
				a.rec.issued += behind
				a.rec.abandoned += behind
				return
			}
		}
		a.rec.observe(obsLate, time.Since(due))
		issue(due)
	}
}

// site is one assembled topology with its load actors: what a
// workload's build returns.
type site struct {
	actors []*actor
	// run[i] is actor i's loop; it returns when stop closes.
	run []func(a *actor, ops []planOp, stop <-chan struct{})
	// close tears the topology down: every client, server and router.
	close func() error
}

// window is one stretch of load on a site: every actor runs its loop
// for the window's length, then the window is closed and summed up. A
// repetition is a series of short windows (see runRep), each of which
// yields its own value of every metric.
type window struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	heapInuse  uint64
	recs       []*recorder
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWindow lets every actor of s run its loop for d and collects what
// they recorded. The calling goroutine only sleeps, so the load is
// exactly len(s.actors) goroutines.
func runWindow(s *site, pl *plan, d time.Duration) *window {
	w := &window{}
	for _, a := range s.actors {
		a.rec.reset()
		w.recs = append(w.recs, &a.rec)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, a := range s.actors {
		wg.Add(1)
		go func(i int, a *actor) {
			defer wg.Done()
			s.run[i](a, pl.Actors[i], stop)
		}(i, a)
	}
	end := time.NewTimer(d)
	<-end.C
	end.Stop()
	close(stop)
	wg.Wait()

	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	w.heapInuse = after.HeapInuse
	return w
}

// samples copies out every actor's samples, for the raw dump.
func (w *window) samples() [][]sample {
	out := make([][]sample, len(w.recs))
	for i, r := range w.recs {
		out[i] = append([]sample(nil), r.samples...)
	}
	return out
}

// total sums one recorder field over the window's actors.
func (w *window) total(f func(*recorder) int64) int64 {
	var n int64
	for _, r := range w.recs {
		n += f(r)
	}
	return n
}

// work is the work the window delivered, in the workload's own unit.
func (w *window) work() float64 {
	sum := 0.0
	for _, r := range w.recs {
		for _, s := range r.samples {
			sum += s.Work
		}
	}
	return sum
}

// rate is the work delivered per second of wall time.
func (w *window) rate() float64 { return w.work() / w.wall.Seconds() }

// pct is the q-th percentile latency, in microseconds, of the
// successful samples of the given kinds; 0 when there are none.
func (w *window) pct(q float64, kinds ...opKind) float64 {
	var want [numKinds]bool
	for _, k := range kinds {
		want[k] = true
	}
	var out []float64
	for _, r := range w.recs {
		for _, s := range r.samples {
			if want[s.Kind] && !s.Failed {
				out = append(out, float64(s.Ns)/1e3)
			}
		}
	}
	sort.Float64s(out)
	return percentile(out, q)
}

// conservation checks that every actor's issued ops are all accounted
// for, and returns the violations.
func (w *window) conservation() []string {
	var bad []string
	for i, r := range w.recs {
		if r.ok+r.failed+r.abandoned != r.issued {
			bad = append(bad, fmt.Sprintf("actor %d: ok %d + failed %d + abandoned %d != issued %d",
				i, r.ok, r.failed, r.abandoned, r.issued))
		}
	}
	return bad
}

// common computes the metrics every workload owns.
func (w *window) common(into map[string]float64) {
	issued := w.total(func(r *recorder) int64 { return r.issued })
	lost := w.total(func(r *recorder) int64 { return r.failed + r.abandoned })
	units := w.work()
	into["failed_share"] = ratio(float64(lost), float64(issued))
	// Process CPU time, user + system, client and server halves together.
	into["cpu_us_per_unit"] = ratio(float64(w.cpu)/1e3, units)
	into["process.allocs_per_unit"] = ratio(float64(w.mallocs), units)
	into["process.alloc_bytes_per_unit"] = ratio(float64(w.allocBytes), units)
	into["process.gc_pause_ms"] = float64(w.gcPause) / 1e6 / w.wall.Seconds()
	into["process.heap_inuse_mb_peak"] = float64(w.heapInuse) / 1e6
	if late := w.pct(99, obsLate); late > 0 {
		into["loadgen.late_us_p99"] = late
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

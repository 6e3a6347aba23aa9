package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Options selects what one invocation measures.
type Options struct {
	Seed     uint64
	Clients  int           // load goroutines and pool stripes; 0 = min(nproc, 4)
	Reps     int           // untraced repetitions
	Duration time.Duration // measured window of each repetition
	Warmup   time.Duration // discarded window before each measured one
	// TraceReps adds that many traced repetitions after the untraced
	// ones; the per-layer metrics come from them.
	TraceReps int
	// Out, when set, receives the raw samples, op plan and spans of
	// every repetition under <Out>/<workload>/.
	Out string
}

// DefaultClients ties the load to the host: never more generator
// goroutines or connections than cores, and at most four.
func DefaultClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// Result is one workload's outcome: every metric it owns as the median
// over repetitions, and the correctness verdict.
type Result struct {
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Clients    int              `json:"clients"`
	Reps       int              `json:"reps"`
	TraceReps  int              `json:"trace_reps"`
	DurationS  float64          `json:"duration_s"`
	EndToEnd   map[string]Value `json:"end_to_end"`
	PerLayer   map[string]Value `json:"per_layer,omitempty"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Correct    bool             `json:"correct"`
	Violations []string         `json:"violations,omitempty"`
}

// repOutcome is what one repetition contributes.
type repOutcome struct {
	values     map[string]float64 // what its windows measured
	traced     map[string]float64 // what the spans of its (traced) windows add up to
	attempted  int64
	failed     int64
	violations []string
}

// RunWorkload measures one workload. Each repetition assembles the
// topology afresh (timed: that is setup_s), warms it, measures and
// tears it down, so repetitions are independent and state that grows
// with use (student records, republished objects) starts from the same
// place every time. Repetition i draws from seed+i.
func RunWorkload(name string, opt Options) (_ *Result, err error) {
	def := workloadDefs[name]
	if def == nil {
		return nil, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(all, ", "))
	}
	if opt.Clients <= 0 {
		opt.Clients = DefaultClients()
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, ref.close()) }()

	res := &Result{
		Workload: name, Seed: opt.Seed, Clients: opt.Clients, Reps: opt.Reps, TraceReps: opt.TraceReps,
		DurationS: opt.Duration.Seconds(), EndToEnd: map[string]Value{}, Correct: true,
	}
	series := map[string][]float64{}
	collect := func(out *repOutcome, values map[string]float64) {
		for k, v := range values {
			series[k] = append(series[k], v)
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		res.Violations = append(res.Violations, out.violations...)
	}
	for i := 0; i < opt.Reps; i++ {
		out, err := runRep(def, opt, i, ref, false)
		if err != nil {
			return nil, err
		}
		collect(out, out.values)
	}
	untraced := median(series[throughputOf[name]])
	for i := 0; i < opt.TraceReps; i++ {
		out, err := runRep(def, opt, opt.Reps+i, ref, true)
		if err != nil {
			return nil, err
		}
		// A traced repetition contributes what its spans say and
		// nothing else: everything its windows themselves measured
		// carries the tracing overhead, which its throughput is kept
		// to show.
		if untraced > 0 {
			out.traced["trace.overhead_share"] = 1 - out.values[throughputOf[name]]/untraced
		}
		collect(out, out.traced)
	}
	if opt.TraceReps > 0 {
		res.PerLayer = map[string]Value{}
		before, err := ref.burst(microBurst)
		if err != nil {
			return nil, err
		}
		micro, err := microTimings(name, opt.Seed)
		if err != nil {
			return nil, err
		}
		after, err := ref.burst(microBurst)
		if err != nil {
			return nil, err
		}
		for k, v := range micro {
			series[k] = []float64{normalise(v, unitOf(k), (before+after)/2/referenceNominal)}
		}
	}
	for k, reps := range series {
		m, ok := lookup(k)
		switch {
		case !ok:
			res.Violations = append(res.Violations, "metric "+k+" is not in the catalogue")
		case !owns(m, name):
			// Measured in passing (the prober's reads on stream_cold have
			// a handler time too) but not this workload's to report.
		case m.Layer == "":
			res.EndToEnd[k] = overReps(m.Unit, reps)
		case res.PerLayer != nil:
			res.PerLayer[k] = overReps(m.Unit, reps)
		}
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// throughputOf names each workload's work-per-second metric.
var throughputOf = Contract[0].From

// A repetition's measured time is cut into pairs of a short window of
// load and a burst of the reference loop (see reference.go): a pair
// lasts about pairLength, of which loadShare is load.
const (
	pairLength = 500 * time.Millisecond
	loadShare  = 0.8
	microBurst = 100 * time.Millisecond // reference bursts around the direct-call timings
)

// unitOf looks a metric's unit up in the catalogue.
func unitOf(name string) string {
	m, _ := lookup(name)
	return m.Unit
}

// overWindows folds a metric's per-window values into the repetition's:
// the median — on a shared host a stall (a descheduled vCPU, a burst of
// page faults) lands in a few windows and moves them a lot, where a
// change that makes every op slower moves them all — except for a
// peak, which is the largest.
func overWindows(name string, vs []float64) float64 {
	if !strings.HasSuffix(name, "_peak") {
		return median(vs)
	}
	peak := vs[0]
	for _, v := range vs {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// runRep is one repetition: build, warm up, measure window by window
// with the host's speed taken in between, check, tear down.
func runRep(def *workloadDef, opt Options, rep int, ref *reference, traced bool) (out *repOutcome, err error) {
	seed := opt.Seed + uint64(rep)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	pairs := int(opt.Duration / pairLength)
	if pairs < 1 {
		pairs = 1
	}
	load := time.Duration(float64(opt.Duration) / float64(pairs) * loadShare)
	burst := opt.Duration/time.Duration(pairs) - load

	// Start every repetition from a collected heap, so one
	// repetition's garbage is not the next one's GC work.
	runtime.GC()
	before, err := ref.burst(burst)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	s, err := def.build(seed, opt.Clients, tr)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: set-up: %w", def.name, err)
	}
	setup := time.Since(begin)
	defer func() {
		if cerr := s.close(); cerr != nil && err == nil {
			err = fmt.Errorf("bench: %s: tear-down: %w", def.name, cerr)
		}
	}()
	pl := def.plan(seed, opt.Clients)
	if len(pl.Actors) != len(s.actors) {
		return nil, fmt.Errorf("bench: %s: plan has %d actors, site %d", def.name, len(pl.Actors), len(s.actors))
	}
	prev, err := ref.burst(burst)
	if err != nil {
		return nil, err
	}
	runWindow(s, pl, opt.Warmup)

	out = &repOutcome{}
	values, layers := map[string][]float64{}, map[string][]float64{}
	add := func(into map[string][]float64, from map[string]float64, speed float64) {
		for k, v := range from {
			into[k] = append(into[k], normalise(v, unitOf(k), speed))
		}
	}
	add(values, map[string]float64{"setup_s": setup.Seconds()}, (before+prev)/2/referenceNominal)
	var raw []rawWindow
	for k := 0; k < pairs; k++ {
		if tr != nil {
			tr.drain() // the warm-up's spans, and the reference burst's none
		}
		w := runWindow(s, pl, load)
		next, err := ref.burst(burst)
		if err != nil {
			return nil, err
		}
		speed := (prev + next) / 2 / referenceNominal
		prev = next

		measured := map[string]float64{"loadgen.host_speed": speed}
		def.metrics(w, measured)
		add(values, measured, speed)
		out.attempted += w.total(func(r *recorder) int64 { return r.issued })
		out.failed += w.total(func(r *recorder) int64 { return r.failed + r.abandoned })
		out.violations = append(out.violations, w.conservation()...)
		if n := w.total(func(r *recorder) int64 { return r.mismatched }); n > 0 {
			out.violations = append(out.violations, fmt.Sprintf("%d ops returned bytes that were never published", n))
		}
		var spans []span
		if tr != nil {
			spans = tr.drain()
			la := analyze(spans)
			fromSpans := map[string]float64{}
			la.metrics(w, fromSpans)
			add(layers, fromSpans, speed)
			out.violations = append(out.violations, la.violations...)
		}
		if opt.Out != "" {
			raw = append(raw, rawWindow{samples: w.samples(), spans: spans})
		}
	}
	out.values = map[string]float64{}
	for k, vs := range values {
		out.values[k] = overWindows(k, vs)
	}
	if tr != nil {
		out.traced = map[string]float64{}
		for k, vs := range layers {
			out.traced[k] = overWindows(k, vs)
		}
	}
	for i := range out.violations {
		out.violations[i] = fmt.Sprintf("%s rep %d: %s", def.name, rep, out.violations[i])
	}
	if opt.Out != "" {
		if err := writeRaw(filepath.Join(opt.Out, def.name), rep, pl, raw); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rawWindow is what -out keeps of one window.
type rawWindow struct {
	samples [][]sample // per actor
	spans   []span
}

// writeRaw saves one repetition's op plan, per-op samples and spans.
func writeRaw(dir string, rep int, pl *plan, windows []rawWindow) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("plan.%d.csv", rep)), pl.encode(), 0o644); err != nil {
		return err
	}
	var samples, spans strings.Builder
	samples.WriteString("window,actor,kind,failed,ns,work\n")
	for k, w := range windows {
		for a, ss := range w.samples {
			for _, s := range ss {
				fmt.Fprintf(&samples, "%d,%d,%s,%t,%d,%g\n", k, a, s.Kind, s.Failed, s.Ns, s.Work)
			}
		}
		for i := range w.spans {
			s := &w.spans[i]
			fmt.Fprintf(&spans, `{"window":%d,"trace":%d,"span":%q,"name":%q,"attr":%q,"start_ns":%d,"end_ns":%d,"req":%d,"resp":%d,"failed":%t}`+"\n",
				k, s.Trace, spanKindNames[s.Kind], s.Name, s.Attr, s.Start, s.End, s.Req, s.Resp, s.Failed)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("samples.%d.csv", rep)), []byte(samples.String()), 0o644); err != nil {
		return err
	}
	if spans.Len() == 0 {
		return nil
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans.%d.jsonl", rep)), []byte(spans.String()), 0o644)
}

// Print writes one result as the table every metric appears in:
// workload metric value unit n min max.
func (r *Result) Print(out io.Writer) {
	for _, group := range []map[string]Value{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := group[k]
			fmt.Fprintf(out, "%-12s %-48s %14.4f %-6s n=%d min=%.4f max=%.4f\n", r.Workload, k, v.Value, v.Unit, v.N, v.Min, v.Max)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(out, "%-12s VIOLATION %s\n", r.Workload, v)
	}
}

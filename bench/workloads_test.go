package bench

import (
	"testing"
	"time"
)

// Every workload, run briefly once untraced and once traced, must emit
// every metric the catalogue says it owns, pass its own correctness and
// conservation checks, and show the layer starvation it was designed
// for. The numbers themselves are not judged here.
func TestWorkloadsEmitWhatTheyOwn(t *testing.T) {
	opt := Options{Seed: 1, Clients: 2, Reps: 1, TraceReps: 1,
		Duration: raceSlowdown * 200 * time.Millisecond, Warmup: raceSlowdown * 100 * time.Millisecond}
	for _, name := range all {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := RunWorkload(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("violations: %v", res.Violations)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d: a healthy run fails nothing", res.Attempted, res.Failed)
			}
			for _, m := range EndToEnd {
				if _, ok := res.EndToEnd[m.Name]; ok != owns(m, name) {
					t.Errorf("end-to-end %s: emitted %v, owned %v", m.Name, ok, owns(m, name))
				}
			}
			for _, m := range PerLayer {
				if _, ok := res.PerLayer[m.Name]; ok != owns(m, name) {
					t.Errorf("per-layer %s: emitted %v, owned %v", m.Name, ok, owns(m, name))
				}
			}
			for _, traced := range []bool{false, true} {
				if _, err := res.ContractLine(traced); err != nil {
					t.Errorf("contract line (traced %v): %v", traced, err)
				}
			}
			for _, zero := range []string{"failed_share", "trace.orphan_spans"} {
				if v := res.EndToEnd[zero].Value + res.PerLayer[zero].Value; v != 0 {
					t.Errorf("%s = %v on a healthy host", zero, v)
				}
			}
			// A run this short is still touching holdings for the first
			// time; a full one reads above 0.99.
			if hit, ok := res.PerLayer["cache.hit_ratio"]; name == BrowseHot && (!ok || hit.Value < 0.5) {
				t.Errorf("browse_hot reads must mostly hit the cache, hit ratio %v", hit.Value)
			}
			if name == StreamCold && res.EndToEnd["deadline_miss_rate"].Value != 0 {
				t.Errorf("deadline_miss_rate = %v on a healthy host", res.EndToEnd["deadline_miss_rate"].Value)
			}
		})
	}
}

// The chunk stream must carry nearly all of stream_cold's bytes and
// none of browse_hot's, or an optimisation of it would show on both.
func TestLayerStarvation(t *testing.T) {
	for name, check := range map[string]func(share float64) bool{
		StreamCold: func(s float64) bool { return s >= 0.95 },
		BrowseHot:  func(s float64) bool { return s == 0 },
	} {
		tr := newTracer()
		def := workloadDefs[name]
		s, err := def.build(3, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		runWindow(s, def.plan(3, 2), raceSlowdown*200*time.Millisecond)
		if err := s.close(); err != nil {
			t.Error(err)
		}
		if share := analyze(tr.drain()).chunkByteShare(); !check(share) {
			t.Errorf("%s: chunk RPCs carried %.3f of the client payload bytes", name, share)
		}
	}
}

func TestPacedActorAccountsEveryDueOp(t *testing.T) {
	a := &actor{}
	stop := make(chan struct{})
	issued := 0
	go func() {
		time.Sleep(60 * time.Millisecond)
		close(stop)
	}()
	a.pace(5*time.Millisecond, stop, func(due time.Time) {
		issued++
		if issued == 3 {
			time.Sleep(22 * time.Millisecond) // a stall: the schedule does not wait for it
		}
		a.rec.issued++
		a.rec.ok++
	})
	if got := a.rec.ok + a.rec.abandoned; got != a.rec.issued {
		t.Errorf("ok %d + abandoned %d != issued %d", a.rec.ok, a.rec.abandoned, a.rec.issued)
	}
	if a.rec.issued < 10 || a.rec.issued > 14 {
		t.Errorf("%d ops were due in 60 ms at 5 ms apart", a.rec.issued)
	}
	late := 0
	for _, s := range a.rec.samples {
		if s.Kind == obsLate && s.Ns > int64(4*time.Millisecond) {
			late++
		}
	}
	if late == 0 {
		t.Error("the ops behind a 22 ms stall must be recorded as late")
	}
}

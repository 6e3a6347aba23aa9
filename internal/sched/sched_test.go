package sched

import (
	"testing"
	"time"

	"mits/internal/media"
	"mits/internal/mheg"
	"mits/internal/mheg/engine"
	"mits/internal/sim"
)

func id(n uint32) mheg.ID { return mheg.ID{App: "s", Num: n} }

// play builds an engine with timed objects of the given durations (ids
// 1..n) plus the compiled sync objects, runs the clock, and returns the
// run instants per object id.
func play(t *testing.T, durations map[uint32]time.Duration, action *mheg.Action, links []*mheg.Link) map[uint32]sim.Time {
	t.Helper()
	clock := sim.NewClock()
	ran := make(map[uint32]sim.Time)
	e := engine.New(clock, engine.WithRenderer(engine.RendererFunc(func(ev engine.Event) {
		if ev.Kind == engine.EvRan {
			if _, seen := ran[ev.Model.Num]; !seen {
				ran[ev.Model.Num] = ev.At
			}
		}
	})))
	for n, d := range durations {
		obj, err := mheg.NewAudioContent(id(n), media.CodingWAV, "x", d, 70)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddModel(obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddModel(action); err != nil {
		t.Fatal(err)
	}
	for _, l := range links {
		if err := e.AddModel(l); err != nil {
			t.Fatal(err)
		}
		if err := e.ArmLink(l.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ApplyAction(action.ID); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	return ran
}

func TestAtomicParallel(t *testing.T) {
	a := Atomic{Mode: Parallel, A: id(1), B: id(2)}
	action, links, err := a.Compile(id(100))
	if err != nil || len(links) != 0 {
		t.Fatalf("compile: %v links=%d", err, len(links))
	}
	ran := play(t, map[uint32]time.Duration{1: time.Second, 2: 2 * time.Second}, action, links)
	if ran[1] != 0 || ran[2] != 0 {
		t.Errorf("parallel ran at %v/%v, want 0/0", ran[1], ran[2])
	}
}

func TestAtomicSerialWithDuration(t *testing.T) {
	a := Atomic{Mode: Serial, A: id(1), B: id(2), DurA: time.Second}
	action, links, err := a.Compile(id(100))
	if err != nil {
		t.Fatal(err)
	}
	ran := play(t, map[uint32]time.Duration{1: time.Second, 2: time.Second}, action, links)
	if ran[1] != 0 || ran[2] != sim.Time(time.Second) {
		t.Errorf("serial ran at %v/%v, want 0/1s", ran[1], ran[2])
	}
}

func TestAtomicSerialEventDriven(t *testing.T) {
	a := Atomic{Mode: Serial, A: id(1), B: id(2)} // no DurA: chain on finish
	action, links, err := a.Compile(id(100))
	if err != nil || len(links) != 1 {
		t.Fatalf("compile: %v links=%d", err, len(links))
	}
	ran := play(t, map[uint32]time.Duration{1: 1500 * time.Millisecond, 2: time.Second}, action, links)
	if ran[2] != sim.Time(1500*time.Millisecond) {
		t.Errorf("chained B ran at %v, want 1.5s", ran[2])
	}
}

func TestAtomicValidation(t *testing.T) {
	if _, _, err := (Atomic{A: id(1)}).Compile(id(100)); err == nil {
		t.Error("zero B accepted")
	}
	if _, _, err := (Atomic{Mode: Mode(7), A: id(1), B: id(2)}).Compile(id(100)); err == nil {
		t.Error("bad mode accepted")
	}
	if Serial.String() != "serial" || Parallel.String() != "parallel" {
		t.Error("Mode.String")
	}
}

func TestElementaryOffsets(t *testing.T) {
	el := Elementary{A: id(1), B: id(2), T1: 500 * time.Millisecond, T2: 2 * time.Second}
	action, err := el.Compile(id(100))
	if err != nil {
		t.Fatal(err)
	}
	ran := play(t, map[uint32]time.Duration{1: time.Second, 2: time.Second}, action, nil)
	if ran[1] != sim.Time(500*time.Millisecond) || ran[2] != sim.Time(2*time.Second) {
		t.Errorf("elementary ran at %v/%v, want 0.5s/2s", ran[1], ran[2])
	}
	if _, err := (Elementary{A: id(1), B: id(2), T1: -1}).Compile(id(100)); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := (Elementary{}).Compile(id(100)); err == nil {
		t.Error("zero ids accepted")
	}
}

func TestCyclicRepeats(t *testing.T) {
	c := Cyclic{Target: id(1)}
	action, link, err := c.Compile(id(100))
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock()
	runs := 0
	e := engine.New(clock, engine.WithRenderer(engine.RendererFunc(func(ev engine.Event) {
		if ev.Kind == engine.EvRan && ev.Model == id(1) {
			runs++
		}
	})))
	obj, _ := mheg.NewAudioContent(id(1), media.CodingWAV, "x", time.Second, 70)
	e.AddModel(obj)
	e.AddModel(action)
	e.AddModel(link)
	e.ArmLink(link.ID)
	e.ApplyAction(action.ID)
	clock.RunUntil(sim.Time(3500 * time.Millisecond))
	if runs != 4 { // t = 0, 1, 2, 3
		t.Errorf("cyclic ran %d times, want 4", runs)
	}
	if _, _, err := (Cyclic{}).Compile(id(100)); err == nil {
		t.Error("zero target accepted")
	}
}

func TestChainedSequence(t *testing.T) {
	ch := Chained{Sequence: []mheg.ID{id(1), id(2), id(3)}}
	action, links, err := ch.Compile(id(100))
	if err != nil || len(links) != 2 {
		t.Fatalf("compile: %v links=%d", err, len(links))
	}
	ran := play(t, map[uint32]time.Duration{1: time.Second, 2: 2 * time.Second, 3: time.Second}, action, links)
	if ran[1] != 0 || ran[2] != sim.Time(time.Second) || ran[3] != sim.Time(3*time.Second) {
		t.Errorf("chain ran at %v/%v/%v, want 0/1s/3s", ran[1], ran[2], ran[3])
	}
	if _, _, err := (Chained{}).Compile(id(100)); err == nil {
		t.Error("empty chain accepted")
	}
	if _, _, err := (Chained{Sequence: []mheg.ID{{}}}).Compile(id(100)); err == nil {
		t.Error("zero id in chain accepted")
	}
}

func TestTimelineResolveAbsoluteAndRelative(t *testing.T) {
	tl := NewTimeline()
	if err := tl.At(id(1), 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tl.With(id(2), id(1), time.Second, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tl.After(id(3), id(2), 500*time.Millisecond, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tl.Resolve(); err != nil {
		t.Fatal(err)
	}
	check := func(n uint32, want time.Duration) {
		got, ok := tl.Start(id(n))
		if !ok || got != want {
			t.Errorf("start(%d)=%v ok=%v, want %v", n, got, ok, want)
		}
	}
	check(1, 0)
	check(2, time.Second)           // with start of 1 + 1s
	check(3, 4500*time.Millisecond) // end of 2 (1s+3s) + 0.5s
	if span := tl.Span(); span != 5500*time.Millisecond {
		t.Errorf("span=%v, want 5.5s", span)
	}
	if len(tl.entries) != 3 {
		t.Errorf("%d entries placed, want 3", len(tl.entries))
	}
}

func TestTimelineUnknownDurationCompilesToLink(t *testing.T) {
	tl := NewTimeline()
	tl.At(id(1), 0, 0) // unknown duration (interactive)
	tl.After(id(2), id(1), 0, time.Second)
	action, links, err := tl.Compile("s", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 {
		t.Fatalf("links=%d, want 1 (event-driven start)", len(links))
	}
	if _, ok := tl.Start(id(2)); ok {
		t.Error("event-driven entry reported a resolved start")
	}
	// The link must fire on id(1) finishing.
	if links[0].Trigger.Source != id(1) {
		t.Errorf("link trigger on %v", links[0].Trigger.Source)
	}
	if action == nil || len(action.Items) == 0 {
		t.Error("no start action emitted")
	}
}

func TestTimelineErrors(t *testing.T) {
	tl := NewTimeline()
	tl.At(id(1), 0, time.Second)
	if err := tl.At(id(1), 0, time.Second); err == nil {
		t.Error("duplicate placement accepted")
	}
	if err := tl.At(mheg.ID{}, 0, 0); err == nil {
		t.Error("zero id accepted")
	}
	if err := tl.With(id(2), id(1), -time.Second, 0); err == nil {
		t.Error("negative offset accepted")
	}

	dangling := NewTimeline()
	dangling.After(id(1), id(9), 0, 0)
	if err := dangling.Resolve(); err == nil {
		t.Error("relation to unplaced object accepted")
	}

	cyclic := NewTimeline()
	cyclic.With(id(1), id(2), 0, 0)
	cyclic.With(id(2), id(1), 0, 0)
	if err := cyclic.Resolve(); err == nil {
		t.Error("cyclic relation accepted")
	}

	empty := NewTimeline()
	if _, _, err := empty.Compile("s", 1); err == nil {
		t.Error("empty timeline compiled")
	}
}

func TestTimelineEndToEndPlayback(t *testing.T) {
	// Full round trip: author a scene timeline, compile, execute on an
	// engine, and verify the wall-clock placement.
	tl := NewTimeline()
	tl.At(id(1), 0, 2*time.Second)
	tl.After(id(2), id(1), time.Second, time.Second)
	tl.With(id(3), id(2), 0, time.Second)
	action, links, err := tl.Compile("s", 100)
	if err != nil {
		t.Fatal(err)
	}
	// The timeline runs objects that already exist, as the composite
	// that sockets them creates them first.
	for n := uint32(3); n >= 1; n-- {
		action.Items = append([]mheg.ElementaryAction{mheg.Act(mheg.OpNew, id(n))}, action.Items...)
	}
	ran := play(t, map[uint32]time.Duration{1: 2 * time.Second, 2: time.Second, 3: time.Second}, action, links)
	if ran[1] != 0 {
		t.Errorf("obj1 at %v", ran[1])
	}
	if ran[2] != sim.Time(3*time.Second) {
		t.Errorf("obj2 at %v, want 3s", ran[2])
	}
	if ran[3] != sim.Time(3*time.Second) {
		t.Errorf("obj3 at %v, want 3s (co-start with obj2)", ran[3])
	}
}

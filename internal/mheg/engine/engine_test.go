package engine

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"mits/internal/media"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/obs"
	"mits/internal/sim"
)

func id(n uint32) mheg.ID { return mheg.ID{App: "t", Num: n} }

// recorder collects render events for assertions.
type recorder struct{ events []Event }

func (r *recorder) RenderEvent(e Event) { r.events = append(r.events, e) }

func (r *recorder) kinds(model mheg.ID) []EventKind {
	var out []EventKind
	for _, e := range r.events {
		if e.Model == model {
			out = append(out, e.Kind)
		}
	}
	return out
}

func (r *recorder) find(kind EventKind, model mheg.ID) (Event, bool) {
	for _, e := range r.events {
		if e.Kind == kind && e.Model == model {
			return e, true
		}
	}
	return Event{}, false
}

func newTestEngine(t *testing.T) (*Engine, *recorder, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	rec := &recorder{}
	e := New(clock, WithRenderer(rec))
	return e, rec, clock
}

func TestIngestLifecycle(t *testing.T) {
	e, rec, clock := newTestEngine(t)
	audio, err := mheg.NewAudioContent(id(1), media.CodingWAV, "store/a.wav", 2*time.Second, 70)
	if err != nil {
		t.Fatal(err)
	}
	container := mheg.NewContainer(id(100), audio, mheg.NewTextContent(id(2), "caption"))
	data, err := codec.ASN1().Encode(container)
	if err != nil {
		t.Fatal(err)
	}

	// Form (a) → form (b).
	cid, err := e.Ingest(data)
	if err != nil {
		t.Fatal(err)
	}
	if cid != id(100) {
		t.Errorf("ingested id %v", cid)
	}
	if e.Models() != 3 { // container + 2 items
		t.Errorf("Models=%d, want 3", e.Models())
	}

	// Form (b) → form (c).
	rt, err := e.NewRT(id(1), "main")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rt)
	obj, _ := e.RT(rt)
	if obj.Running != mheg.StatusRunning {
		t.Error("object not running after Run")
	}
	clock.Run()
	if obj.Running != mheg.StatusFinished {
		t.Error("timed object never finished")
	}
	if clock.Now() != sim.Time(2*time.Second) {
		t.Errorf("finished at %v, want 2s", clock.Now())
	}
	ev, ok := rec.find(EvFinished, id(1))
	if !ok || ev.At != sim.Time(2*time.Second) {
		t.Errorf("finish event %+v", ev)
	}

	// Delete (form (c) gone), Destroy (form (b) gone).
	e.Delete(rt)
	if _, live := e.RT(rt); live {
		t.Error("RT alive after Delete")
	}
	e.Destroy(id(1))
	if _, ok := e.Model(id(1)); ok {
		t.Error("model alive after Destroy")
	}
}

func TestIngestRejectsDuplicatesAndInvalid(t *testing.T) {
	e, _, _ := newTestEngine(t)
	if err := e.AddModel(mheg.NewTextContent(id(1), "x")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddModel(mheg.NewTextContent(id(1), "y")); err == nil {
		t.Error("duplicate model accepted")
	}
	if err := e.AddModel(mheg.NewComposite(id(2), id(2))); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := e.NewRT(id(99), ""); err == nil {
		t.Error("NewRT of unknown model succeeded")
	}
}

func TestSerialCompositePlayback(t *testing.T) {
	// Fig 2.6a serial: three timed clips play one after another.
	e, rec, clock := newTestEngine(t)
	for i := uint32(1); i <= 3; i++ {
		c, _ := mheg.NewAudioContent(id(i), media.CodingWAV, fmt.Sprintf("a%d", i), time.Second, 70)
		e.AddModel(c)
	}
	e.AddModel(mheg.NewComposite(id(10), id(1), id(2), id(3)))
	rt, err := e.NewRT(id(10), "stage")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rt)
	clock.Run()

	if clock.Now() != sim.Time(3*time.Second) {
		t.Errorf("serial playback ended at %v, want 3s", clock.Now())
	}
	// Each clip ran exactly when its predecessor finished.
	for i := uint32(1); i <= 3; i++ {
		ev, ok := rec.find(EvRan, id(i))
		if !ok {
			t.Fatalf("clip %d never ran", i)
		}
		if want := sim.Time(time.Duration(i-1) * time.Second); ev.At != want {
			t.Errorf("clip %d ran at %v, want %v", i, ev.At, want)
		}
	}
	comp, _ := e.RT(rt)
	if comp.Running != mheg.StatusFinished {
		t.Error("composite did not finish after its sequence")
	}
}

func TestParallelCompositeViaStartUp(t *testing.T) {
	// Fig 2.6a parallel: a start-up action runs both components at once.
	e, rec, clock := newTestEngine(t)
	a, _ := mheg.NewAudioContent(id(1), media.CodingWAV, "a", 2*time.Second, 70)
	v := mheg.NewVideoContent(id(2), "v", mheg.Size{W: 64, H: 64}, 3*time.Second)
	e.AddModel(a)
	e.AddModel(v)
	e.AddModel(mheg.RunAll(id(20), id(1), id(2)))
	comp := mheg.NewComposite(id(10))
	comp.StartUp = id(20)
	e.AddModel(comp)

	rt, _ := e.NewRT(id(10), "stage")
	e.Run(rt)
	clock.Run()

	ra, _ := rec.find(EvRan, id(1))
	rv, _ := rec.find(EvRan, id(2))
	if ra.At != 0 || rv.At != 0 {
		t.Errorf("parallel components ran at %v and %v, want both 0", ra.At, rv.At)
	}
	fa, _ := rec.find(EvFinished, id(1))
	fv, _ := rec.find(EvFinished, id(2))
	if fa.At != sim.Time(2*time.Second) || fv.At != sim.Time(3*time.Second) {
		t.Errorf("finishes at %v/%v, want 2s/3s", fa.At, fv.At)
	}
}

func TestOnFinishedLink(t *testing.T) {
	// §2.2.2.3: "When the audio has finished, display the image."
	e, rec, clock := newTestEngine(t)
	audio, _ := mheg.NewAudioContent(id(1), media.CodingWAV, "a", time.Second, 70)
	image := mheg.NewImageContent(id(2), "i", mheg.Size{W: 100, H: 100})
	e.AddModel(audio)
	e.AddModel(image)
	link := mheg.OnFinished(id(3), id(1), mheg.Act(mheg.OpNew, id(2)), mheg.Act(mheg.OpRun, id(2)))
	e.AddModel(link)
	e.ArmLink(id(3))

	rt, _ := e.NewRT(id(1), "stage")
	e.Run(rt)
	clock.Run()

	ev, ok := rec.find(EvRan, id(2))
	if !ok {
		t.Fatal("image never ran after audio finished")
	}
	if ev.At != sim.Time(time.Second) {
		t.Errorf("image ran at %v, want 1s", ev.At)
	}
	if e.Stats.LinksFired != 1 {
		t.Errorf("LinksFired=%d, want 1", e.Stats.LinksFired)
	}
}

func TestChoiceInterruptsTimeline(t *testing.T) {
	// Fig 4.4b: text1 shows for its duration then image1 appears — but
	// clicking choice1 displays image1 early.
	build := func() (*Engine, *recorder, *sim.Clock, RTID) {
		e, rec, clock := newTestEngine(t)
		text1, _ := mheg.NewAudioContent(id(1), media.CodingWAV, "t1", 10*time.Second, 70) // timed "text1"
		image1 := mheg.NewImageContent(id(2), "i1", mheg.Size{W: 10, H: 10})
		choice1 := mheg.NewTextContent(id(3), "[show image]")
		e.AddModel(text1)
		e.AddModel(image1)
		e.AddModel(choice1)
		show := []mheg.ElementaryAction{
			mheg.Act(mheg.OpStop, id(1)),
			mheg.Act(mheg.OpNew, id(2)),
			mheg.Act(mheg.OpRun, id(2)),
		}
		e.AddModel(mheg.OnFinished(id(4), id(1), show...))
		e.AddModel(mheg.OnSelect(id(5), id(3), show...))
		e.ArmLink(id(4))
		e.ArmLink(id(5))
		t1, _ := e.NewRT(id(1), "stage")
		e.NewRT(id(3), "stage")
		e.Run(t1)
		return e, rec, clock, t1
	}

	// Without interaction: image appears at 10s.
	_, rec, clock, _ := build()
	clock.Run()
	ev, _ := rec.find(EvRan, id(2))
	if ev.At != sim.Time(10*time.Second) {
		t.Errorf("passive: image at %v, want 10s", ev.At)
	}

	// With a click at 3s: image appears at 3s.
	e2, rec2, clock2, _ := build()
	clock2.After(3*time.Second, func(sim.Time) {
		choiceRT := e2.RTsOf(id(3))[0]
		e2.Select(choiceRT)
	})
	clock2.Run()
	ev2, _ := rec2.find(EvRan, id(2))
	if ev2.At != sim.Time(3*time.Second) {
		t.Errorf("interactive: image at %v, want 3s", ev2.At)
	}
	// And the stopped text1 must not fire its finish link later.
	count := 0
	for _, e := range rec2.events {
		if e.Kind == EvRan && e.Model == id(2) {
			count++
		}
	}
	if count != 1 {
		t.Errorf("image ran %d times, want 1 (stop must cancel the timer)", count)
	}
}

func TestAdditionalConditions(t *testing.T) {
	// A link that fires only when a flag object's data is "armed".
	e, _, _ := newTestEngine(t)
	button := mheg.NewTextContent(id(1), "btn")
	flag := mheg.NewGenericValue(id(2), mheg.StringValue("disarmed"))
	target := mheg.NewImageContent(id(3), "x", mheg.Size{})
	e.AddModel(button)
	e.AddModel(flag)
	e.AddModel(target)
	l := mheg.OnSelect(id(4), id(1), mheg.Act(mheg.OpNew, id(3)))
	l.Additional = []mheg.Condition{{
		Source: id(2), Attr: mheg.AttrData, Op: mheg.OpEqual, Value: mheg.StringValue("armed"),
	}}
	e.AddModel(l)
	e.ArmLink(id(4))

	btn, _ := e.NewRT(id(1), "")
	flagRT, _ := e.NewRT(id(2), "")

	e.Select(btn)
	if len(e.RTsOf(id(3))) != 0 {
		t.Fatal("link fired with unmet additional condition")
	}
	// Arm the flag and click again.
	e.applyOne(mheg.Act(mheg.OpSetData, id(2), mheg.StringValue("armed")))
	_ = flagRT
	e.Select(btn)
	if len(e.RTsOf(id(3))) != 1 {
		t.Fatal("link did not fire once condition was met")
	}
}

func TestGetValueCopiesAttribute(t *testing.T) {
	e, _, _ := newTestEngine(t)
	src, _ := mheg.NewAudioContent(id(1), media.CodingWAV, "a", time.Second, 55)
	dst := mheg.NewGenericValue(id(2), mheg.IntValue(0))
	e.AddModel(src)
	e.AddModel(dst)
	e.NewRT(id(1), "")
	e.NewRT(id(2), "")
	e.applyOne(mheg.ElementaryAction{
		Op:        mheg.OpGetValue,
		Targets:   []mheg.ID{id(1)},
		Args:      []mheg.Value{mheg.IntValue(int64(mheg.AttrVolume))},
		TargetAux: id(2),
	})
	rt := e.rts[e.RTsOf(id(2))[0]]
	if !rt.Data.Equal(mheg.IntValue(55)) {
		t.Errorf("copied value %v, want 55", rt.Data)
	}
}

func TestPauseResume(t *testing.T) {
	e, rec, clock := newTestEngine(t)
	a, _ := mheg.NewAudioContent(id(1), media.CodingWAV, "a", 4*time.Second, 70)
	e.AddModel(a)
	rt, _ := e.NewRT(id(1), "")
	e.Run(rt)
	clock.After(time.Second, func(sim.Time) { e.Pause(rt) })
	clock.After(3*time.Second, func(sim.Time) { e.Resume(rt) })
	clock.Run()
	// 1s played + 2s paused + remaining 3s ⇒ finish at 6s.
	ev, ok := rec.find(EvFinished, id(1))
	if !ok || ev.At != sim.Time(6*time.Second) {
		t.Errorf("finish at %v, want 6s (pause must stretch playback)", ev.At)
	}
}

func TestSetSpeedScalesDuration(t *testing.T) {
	e, rec, clock := newTestEngine(t)
	v := mheg.NewVideoContent(id(1), "v", mheg.Size{}, 4*time.Second)
	e.AddModel(v)
	rt, _ := e.NewRT(id(1), "")
	e.applyOne(mheg.Act(mheg.OpSetSpeed, id(1), mheg.IntValue(200)))
	e.Run(rt)
	clock.Run()
	ev, _ := rec.find(EvFinished, id(1))
	if ev.At != sim.Time(2*time.Second) {
		t.Errorf("double-speed 4s video finished at %v, want 2s", ev.At)
	}
}

func TestRenditionActions(t *testing.T) {
	e, rec, _ := newTestEngine(t)
	img := mheg.NewImageContent(id(1), "i", mheg.Size{W: 64, H: 128})
	e.AddModel(img)
	rtid, _ := e.NewRT(id(1), "ch1")
	e.applyOne(mheg.Act(mheg.OpSetPosition, id(1), mheg.IntValue(100), mheg.IntValue(200)))
	e.applyOne(mheg.Act(mheg.OpSetSize, id(1), mheg.IntValue(320), mheg.IntValue(240)))
	e.applyOne(mheg.Act(mheg.OpSetVisible, id(1), mheg.BoolValue(false)))
	e.applyOne(mheg.Act(mheg.OpSetHighlight, id(1), mheg.BoolValue(true)))
	rt, _ := e.RT(rtid)
	if rt.Position != (mheg.Point{X: 100, Y: 200}) || rt.Size != (mheg.Size{W: 320, H: 240}) {
		t.Errorf("rendition state %+v", rt)
	}
	if rt.Visible || !rt.Highlight {
		t.Error("visibility/highlight not applied")
	}
	if _, ok := rec.find(EvMoved, id(1)); !ok {
		t.Error("no move event emitted")
	}
	if rt.Channel != "ch1" {
		t.Errorf("channel %q", rt.Channel)
	}
}

func TestSocketsKinds(t *testing.T) {
	e, _, _ := newTestEngine(t)
	leafA := mheg.NewTextContent(id(1), "a")
	leafB := mheg.NewTextContent(id(2), "b")
	inner := mheg.NewComposite(id(3), id(2))
	outer := mheg.NewComposite(id(4), id(1), id(3), id(99)) // 99 missing
	e.AddModel(leafA)
	e.AddModel(leafB)
	e.AddModel(inner)
	e.AddModel(outer)
	rtid, err := e.NewRT(id(4), "")
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := e.RT(rtid)
	if len(rt.Sockets) != 3 {
		t.Fatalf("sockets %d, want 3", len(rt.Sockets))
	}
	if rt.Sockets[0].Kind != PresentableSocket {
		t.Errorf("socket 0 %v, want presentable", rt.Sockets[0].Kind)
	}
	if rt.Sockets[1].Kind != StructuralSocket {
		t.Errorf("socket 1 %v, want structural", rt.Sockets[1].Kind)
	}
	if rt.Sockets[2].Kind != EmptySocket {
		t.Errorf("socket 2 %v, want empty", rt.Sockets[2].Kind)
	}
	// Deleting the composite cascades through sockets.
	live := e.RTs()
	e.Delete(rtid)
	if e.RTs() != live-4 { // outer, leafA rt, inner rt, leafB rt
		t.Errorf("RTs %d → %d after cascade delete", live, e.RTs())
	}
}

func TestRuntimeReuseDoesNotAffectModel(t *testing.T) {
	// §2.2.2.2: "The presentation or activation of a runtime-object
	// does not affect the model object."
	e, _, _ := newTestEngine(t)
	img := mheg.NewImageContent(id(1), "i", mheg.Size{W: 64, H: 64})
	e.AddModel(img)
	a, _ := e.NewRT(id(1), "")
	b, _ := e.NewRT(id(1), "")
	e.applyOne(mheg.Act(mheg.OpSetSize, id(1), mheg.IntValue(10), mheg.IntValue(10)))
	// Both RTs changed (targets address the model's instances)...
	rta, _ := e.RT(a)
	rtb, _ := e.RT(b)
	if rta.Size.W != 10 || rtb.Size.W != 10 {
		t.Error("action did not reach RT instances")
	}
	// ...but the model keeps its original parameter set.
	m, _ := e.Model(id(1))
	if m.(*mheg.Content).OrigSize.W != 64 {
		t.Error("model object mutated by run-time action")
	}
}

func TestContentFetchCaching(t *testing.T) {
	fetches := 0
	resolver := ResolverFunc(func(ref string) ([]byte, error) {
		fetches++
		return make([]byte, 1000), nil
	})
	clock := sim.NewClock()
	e := New(clock, WithResolver(resolver))
	c := mheg.NewVideoContent(id(1), "store/v.mpg", mheg.Size{}, time.Second)
	e.AddModel(c)
	for i := 0; i < 5; i++ {
		rt, _ := e.NewRT(id(1), "")
		e.Run(rt)
		clock.Run()
	}
	if fetches != 1 {
		t.Errorf("resolver called %d times for 5 presentations, want 1 (cache)", fetches)
	}
	if e.Stats.CacheHits != 4 {
		t.Errorf("CacheHits=%d, want 4", e.Stats.CacheHits)
	}
	if e.Stats.BytesFetched != 1000 {
		t.Errorf("BytesFetched=%d, want 1000", e.Stats.BytesFetched)
	}

	// Ablation: cache disabled re-fetches every time.
	e2 := New(sim.NewClock(), WithResolver(resolver))
	e2.DisableCache = true
	e2.AddModel(mheg.NewVideoContent(id(1), "store/v.mpg", mheg.Size{}, time.Second))
	fetches = 0
	for i := 0; i < 5; i++ {
		rt, _ := e2.NewRT(id(1), "")
		e2.Run(rt)
		e2.Clock().Run()
	}
	if fetches != 5 {
		t.Errorf("uncached resolver called %d times, want 5", fetches)
	}
}

// TestContentFetchErrorsCounted: a resolver failure is counted once per
// failed fetch, and a failed fetch is not cached, so the next
// presentation tries (and counts) again.
func TestContentFetchErrorsCounted(t *testing.T) {
	failing := ResolverFunc(func(ref string) ([]byte, error) { return nil, fmt.Errorf("store down: %s", ref) })
	errs := obs.GetCounter("mheg_content_fetch_errors_total")
	before := errs.Value()
	e := New(sim.NewClock(), WithResolver(failing))
	e.AddModel(mheg.NewVideoContent(id(1), "store/v.mpg", mheg.Size{}, time.Second))
	for i := 0; i < 3; i++ {
		rt, _ := e.NewRT(id(1), "")
		e.Run(rt)
		e.Clock().Run()
	}
	if got := errs.Value() - before; got != 3 {
		t.Errorf("3 failed presentation fetches counted %d errors", got)
	}
	if e.Stats.ContentFetches != 0 || e.Stats.BytesFetched != 0 {
		t.Errorf("failed fetches reached Stats: %+v", e.Stats)
	}
}

func TestScriptActivation(t *testing.T) {
	e, rec, _ := newTestEngine(t)
	s := mheg.NewScript(id(1), "mits-script", []byte("say hi"))
	e.AddModel(s)
	rt, _ := e.NewRT(id(1), "")
	e.applyOne(mheg.Act(mheg.OpActivate, id(1)))
	ev, ok := rec.find(EvScript, id(1))
	if !ok || ev.Detail != "mits-script" {
		t.Errorf("script event %+v ok=%v", ev, ok)
	}
	obj, _ := e.RT(rt)
	if obj.Running != mheg.StatusRunning {
		t.Error("script instance not active")
	}
	e.applyOne(mheg.Act(mheg.OpDeactivate, id(1)))
	if obj.Running != mheg.StatusNotRunning {
		t.Error("script instance still active")
	}
}

func TestDelayedActions(t *testing.T) {
	// RunSequence offsets (elementary synchronization of Fig 2.6b).
	e, rec, clock := newTestEngine(t)
	a := mheg.NewImageContent(id(1), "a", mheg.Size{})
	b := mheg.NewImageContent(id(2), "b", mheg.Size{})
	e.AddModel(a)
	e.AddModel(b)
	seq, err := mheg.RunSequence(id(3), []time.Duration{time.Second, 3 * time.Second}, id(1), id(2))
	if err != nil {
		t.Fatal(err)
	}
	e.AddModel(seq)
	e.ApplyAction(id(3))
	clock.Run()
	ra, _ := rec.find(EvRan, id(1))
	rb, _ := rec.find(EvRan, id(2))
	if ra.At != sim.Time(time.Second) || rb.At != sim.Time(3*time.Second) {
		t.Errorf("sequence ran at %v and %v, want 1s and 3s", ra.At, rb.At)
	}
}

func TestCyclicSynchronization(t *testing.T) {
	// Cyclic sync (§2.2.2.3): an object restarted by a link on its own
	// finish repeats periodically.
	e, rec, clock := newTestEngine(t)
	tick, _ := mheg.NewAudioContent(id(1), media.CodingWAV, "tick", time.Second, 70)
	e.AddModel(tick)
	e.AddModel(mheg.OnFinished(id(2), id(1),
		mheg.Act(mheg.OpStop, id(1)),
		mheg.Act(mheg.OpRun, id(1))))
	e.ArmLink(id(2))
	rt, _ := e.NewRT(id(1), "")
	e.Run(rt)
	clock.RunUntil(sim.Time(4500 * time.Millisecond))
	runs := 0
	for _, ev := range rec.events {
		if ev.Kind == EvRan && ev.Model == id(1) {
			runs++
		}
	}
	if runs != 5 { // t=0,1,2,3,4
		t.Errorf("cyclic object ran %d times in 4.5s, want 5", runs)
	}
}

func TestStopIsIdempotentAndRecursive(t *testing.T) {
	e, _, clock := newTestEngine(t)
	a, _ := mheg.NewAudioContent(id(1), media.CodingWAV, "a", 5*time.Second, 70)
	e.AddModel(a)
	e.AddModel(mheg.NewComposite(id(2), id(1)))
	rt, _ := e.NewRT(id(2), "")
	e.Run(rt)
	e.Stop(rt)
	e.Stop(rt)
	clock.Run()
	child, _ := e.RT(e.RTsOf(id(1))[0])
	if child.Running != mheg.StatusNotRunning {
		t.Error("child still running after composite Stop")
	}
	if clock.Now() >= sim.Time(5*time.Second) {
		t.Error("finish timer survived Stop")
	}
}

func TestEngineWithSGMLEncoding(t *testing.T) {
	clock := sim.NewClock()
	e := New(clock, WithEncoding(codec.SGML()))
	obj := mheg.NewTextContent(id(1), "via sgml")
	data, err := codec.SGML().Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(data); err != nil {
		t.Fatal(err)
	}
	if e.Models() != 1 {
		t.Error("SGML ingest failed")
	}
}

func TestEventString(t *testing.T) {
	ev := Event{At: sim.Time(time.Second), Kind: EvRan, RT: 3, Model: id(1)}
	if ev.String() == "" || EvRan.String() != "ran" || EventKind(99).String() == "" {
		t.Error("stringers broken")
	}
	if EmptySocket.String() != "empty" || PresentableSocket.String() != "presentable" ||
		StructuralSocket.String() != "structural" || SocketKind(9).String() == "" {
		t.Error("socket stringers broken")
	}
}

// TestEngineFuzzOpsNeverPanic drives the engine with random operation
// sequences and checks structural invariants after each step.
func TestEngineFuzzOpsNeverPanic(t *testing.T) {
	rng := sim.NewRNG(4242)
	for round := 0; round < 20; round++ {
		clock := sim.NewClock()
		e := New(clock)
		// A small model population: contents, a composite, a link.
		var models []mheg.ID
		for i := uint32(1); i <= 5; i++ {
			c, err := mheg.NewAudioContent(id(i), media.CodingWAV, "x", time.Duration(1+rng.Intn(3))*time.Second, 70)
			if err != nil {
				t.Fatal(err)
			}
			e.AddModel(c)
			models = append(models, id(i))
		}
		e.AddModel(mheg.NewComposite(id(10), id(1), id(2)))
		models = append(models, id(10))
		e.AddModel(mheg.OnFinished(id(11), id(1), mheg.Act(mheg.OpRun, id(2))))
		e.ArmLink(id(11))

		var rts []RTID
		for step := 0; step < 300; step++ {
			switch rng.Intn(8) {
			case 0:
				m := models[rng.Intn(len(models))]
				if rt, err := e.NewRT(m, "ch"); err == nil {
					rts = append(rts, rt)
				}
			case 1:
				if len(rts) > 0 {
					e.Run(rts[rng.Intn(len(rts))])
				}
			case 2:
				if len(rts) > 0 {
					e.Stop(rts[rng.Intn(len(rts))])
				}
			case 3:
				if len(rts) > 0 {
					e.Pause(rts[rng.Intn(len(rts))])
				}
			case 4:
				if len(rts) > 0 {
					e.Resume(rts[rng.Intn(len(rts))])
				}
			case 5:
				if len(rts) > 0 {
					e.Delete(rts[rng.Intn(len(rts))])
				}
			case 6:
				if len(rts) > 0 {
					e.Select(rts[rng.Intn(len(rts))])
				}
			case 7:
				clock.RunFor(time.Duration(rng.Intn(int(2 * time.Second))))
			}
			// Invariants: every listed RT is live; RTsOf agrees with RT.
			for _, m := range models {
				for _, rt := range e.RTsOf(m) {
					if _, ok := e.RT(rt); !ok {
						t.Fatalf("round %d step %d: RTsOf lists dead rt %d", round, step, rt)
					}
				}
			}
			if e.RTs() < 0 {
				t.Fatal("negative RT count")
			}
		}
		clock.Run() // drain any scheduled finishes without panicking
	}
}

// countingObject is a valid object that counts its Validate calls.
type countingObject struct {
	mheg.Common
	validations *int
}

func (o *countingObject) Validate() error { *o.validations++; return nil }

// TestOneValidatePerObject: a container validates everything it holds,
// so registering it validates each nested object once — not once per
// enclosing level, as when every level re-validated its items.
func TestOneValidatePerObject(t *testing.T) {
	var n int
	leaf := &countingObject{Common: mheg.Common{Class: mheg.ClassContent, ID: id(1)}, validations: &n}
	inner := mheg.NewContainer(id(2), leaf)
	outer := mheg.NewContainer(id(3), inner)

	e, _, _ := newTestEngine(t)
	if err := e.AddModel(outer); err != nil {
		t.Fatal(err)
	}
	if n != 1 || e.Models() != 3 {
		t.Errorf("AddModel of a leaf two containers deep: %d validations, %d models; want 1, 3", n, e.Models())
	}

	// Load validates nothing, keeps the duplicate check, and registers
	// the same objects in a second engine.
	n = 0
	e2, _, _ := newTestEngine(t)
	if err := e2.Load(outer); err != nil || n != 0 {
		t.Fatalf("Load: %v after %d validations, want none", err, n)
	}
	if m, ok := e2.Model(id(1)); !ok || m != leaf {
		t.Errorf("loaded leaf %v, want the object itself", m)
	}
	if err := e2.Load(inner); err == nil {
		t.Error("Load of an object already present succeeded")
	}
}

// TestDecodeThenLoadIsIngest: Decode validates and counts one a→b
// transition; loading its object yields what Ingest yields.
func TestDecodeThenLoadIsIngest(t *testing.T) {
	audio, err := mheg.NewAudioContent(id(1), media.CodingWAV, "store/a.wav", 2*time.Second, 70)
	if err != nil {
		t.Fatal(err)
	}
	data, err := codec.ASN1().Encode(mheg.NewContainer(id(100), audio, mheg.NewTextContent(id(2), "caption")))
	if err != nil {
		t.Fatal(err)
	}
	ingested, _, _ := newTestEngine(t)
	if _, err := ingested.Ingest(data); err != nil {
		t.Fatal(err)
	}
	e, _, _ := newTestEngine(t)
	root, err := e.Decode(data)
	if err != nil || e.Models() != 0 || e.Stats.ObjectsDecoded != 1 {
		t.Fatalf("Decode: %v, %d models, %d decoded; want nil, 0, 1", err, e.Models(), e.Stats.ObjectsDecoded)
	}
	if err := e.Load(root); err != nil || e.Models() != ingested.Models() || e.Stats != ingested.Stats {
		t.Errorf("Decode+Load: %v, %d models, %+v; Ingest: %d models, %+v", err, e.Models(), e.Stats, ingested.Models(), ingested.Stats)
	}
}

// TestLoadIndex: an empty engine adopts another's Index as its own copy
// and presents from it as if it had loaded the root; an engine that
// already holds models refuses one.
func TestLoadIndex(t *testing.T) {
	audio, err := mheg.NewAudioContent(id(1), media.CodingWAV, "store/a.wav", 2*time.Second, 70)
	if err != nil {
		t.Fatal(err)
	}
	root := mheg.NewContainer(id(100), audio, mheg.NewTextContent(id(2), "caption"), mheg.NewComposite(id(10), id(1), id(2)))
	loaded, _, _ := newTestEngine(t)
	if err := loaded.Load(root); err != nil {
		t.Fatal(err)
	}
	index := loaded.Index()
	if len(index) != loaded.Models() || index[id(100)] != root || index[id(1)] != audio {
		t.Fatalf("Index = %v, want the %d loaded models", index, loaded.Models())
	}
	loaded.Destroy(id(2))
	if _, ok := index[id(2)]; !ok {
		t.Error("Destroy in the engine reached its Index")
	}

	e, rec, _ := newTestEngine(t)
	if err := e.LoadIndex(index); err != nil {
		t.Fatal(err)
	}
	if e.Models() != len(index) {
		t.Fatalf("adopted %d models, want %d", e.Models(), len(index))
	}
	rt, err := e.NewRT(id(10), "stage")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rt)
	if got := rec.kinds(id(1)); len(got) == 0 || got[0] != EvCreated {
		t.Errorf("events of the adopted audio model: %v", got)
	}
	e.Destroy(id(1))
	if _, ok := index[id(1)]; !ok {
		t.Error("Destroy in the adopting engine reached the index")
	}

	more, _, _ := newTestEngine(t)
	more.AddModel(mheg.NewTextContent(id(3), "other"))
	if err := more.LoadIndex(index); err == nil || more.Models() != 1 {
		t.Errorf("LoadIndex into an engine holding a model: %v, %d models; want refused, 1", err, more.Models())
	}
}

// TestDeletedRTLeavesTheRegister: a deleted run-time object is gone
// from RT, RTs and RTsOf, and its id is never handed out again; objects
// and instance lists carved past the first slab are as separate as the
// first ones.
func TestDeletedRTLeavesTheRegister(t *testing.T) {
	e, _, _ := newTestEngine(t)
	e.AddModel(mheg.NewTextContent(id(1), "a"))
	e.AddModel(mheg.NewTextContent(id(2), "b"))
	var ids, ofModel1, ofModel2 []RTID
	for i := 0; i < 3*slabMin; i++ {
		model := id(uint32(1 + i%2))
		rt, err := e.NewRT(model, "")
		if err != nil {
			t.Fatal(err)
		}
		if rt != RTID(i+1) {
			t.Fatalf("instance %d got id %d, want %d", i, rt, i+1)
		}
		ids = append(ids, rt)
		if model == id(1) {
			ofModel1 = append(ofModel1, rt)
		} else {
			ofModel2 = append(ofModel2, rt)
		}
	}
	if got1, got2 := e.RTsOf(id(1)), e.RTsOf(id(2)); !slices.Equal(got1, ofModel1) || !slices.Equal(got2, ofModel2) {
		t.Fatalf("RTsOf = %v and %v, want %v and %v", got1, got2, ofModel1, ofModel2)
	}
	for i, rt := range ids {
		obj, ok := e.RT(rt)
		if !ok || obj.ID != rt {
			t.Fatalf("RT(%d) = %+v, %v", rt, obj, ok)
		}
		obj.Volume = i
	}
	for i, rt := range ids {
		if obj, _ := e.RT(rt); obj.Volume != i {
			t.Errorf("rt %d has volume %d, want %d: run-time objects share memory", rt, obj.Volume, i)
		}
	}

	gone := ofModel1[1]
	e.Delete(gone)
	e.Delete(gone) // a second delete, and ids never handed out, change nothing
	for _, never := range []RTID{0, -1, ids[len(ids)-1] + 1} {
		e.Delete(never)
		if _, ok := e.RT(never); ok {
			t.Errorf("RT(%d) found an object", never)
		}
	}
	if _, ok := e.RT(gone); ok {
		t.Errorf("RT(%d) found the deleted object", gone)
	}
	if got, want := e.RTs(), len(ids)-1; got != want {
		t.Errorf("RTs() = %d after one delete, want %d", got, want)
	}
	live := slices.Delete(slices.Clone(ofModel1), 1, 2)
	if got := e.RTsOf(id(1)); !slices.Equal(got, live) {
		t.Errorf("RTsOf = %v, want %v", got, live)
	}
	if got := e.RTsOf(id(2)); !slices.Equal(got, ofModel2) {
		t.Errorf("RTsOf(other model) = %v, want %v", got, ofModel2)
	}
	next, _ := e.NewRT(id(1), "")
	if next <= ids[len(ids)-1] {
		t.Errorf("NewRT after a delete handed out id %d, already used", next)
	}
	if e.RTs() != len(ids) {
		t.Errorf("RTs() = %d, want %d", e.RTs(), len(ids))
	}
}

// TestAdoptedIndexCopyOnWrite: an engine that adopted an Index writes a
// copy of its own — Load, AddModel and Destroy leave the adopted map as
// it was — and engines sharing one Index may write theirs concurrently
// (make racestress runs this under -race).
func TestAdoptedIndexCopyOnWrite(t *testing.T) {
	audio, err := mheg.NewAudioContent(id(1), media.CodingWAV, "store/a.wav", 2*time.Second, 70)
	if err != nil {
		t.Fatal(err)
	}
	root := mheg.NewContainer(id(100), audio, mheg.NewTextContent(id(2), "caption"), mheg.NewComposite(id(10), id(1), id(2)))
	src, _, _ := newTestEngine(t)
	if err := src.Load(root); err != nil {
		t.Fatal(err)
	}
	index := src.Index()
	want := maps.Clone(index)

	e, _, _ := newTestEngine(t)
	if err := e.LoadIndex(index); err != nil {
		t.Fatal(err)
	}
	rt, err := e.NewRT(id(10), "")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rt)
	if err := e.Load(mheg.NewTextContent(id(3), "loaded")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddModel(mheg.NewTextContent(id(4), "added")); err != nil {
		t.Fatal(err)
	}
	e.Destroy(id(2))
	e.Destroy(id(10))
	if !reflect.DeepEqual(index, want) {
		t.Errorf("the adopted index changed under Load, AddModel and Destroy: %v, want %v", index, want)
	}
	_, has3 := e.Model(id(3))
	_, has2 := e.Model(id(2))
	if !has3 || has2 || e.Models() != len(want) {
		t.Errorf("the engine's own register: id 3 %v, id 2 %v, %d models; want true, false, %d", has3, has2, e.Models(), len(want))
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(destroys bool) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e := New(sim.NewClock())
				if err := e.LoadIndex(index); err != nil {
					t.Error(err)
					return
				}
				rt, err := e.NewRT(id(10), "")
				if err != nil {
					t.Error(err)
					return
				}
				e.Run(rt)
				if destroys {
					e.Destroy(id(1))
					e.Destroy(id(10))
				}
			}
		}(g == 0)
	}
	wg.Wait()
	if !reflect.DeepEqual(index, want) {
		t.Errorf("the shared index changed under concurrent adopters: %v, want %v", index, want)
	}
}

// TestPerClassLifecycleCounters: NewRT, Run and Delete count into
// mheg_rt_{created,run,destroyed}_total{class=…}, one series per class,
// resolved once and kept.
func TestPerClassLifecycleCounters(t *testing.T) {
	series := func(name, class string) int64 { return obs.GetCounter(name, "class", class).Value() }
	type counts struct{ created, run, destroyed int64 }
	read := func(class string) counts {
		return counts{series("mheg_rt_created_total", class), series("mheg_rt_run_total", class), series("mheg_rt_destroyed_total", class)}
	}
	beforeContent, beforeComposite := read("content"), read("composite")

	e, _, clock := newTestEngine(t)
	for i := uint32(1); i <= 2; i++ {
		c, _ := mheg.NewAudioContent(id(i), media.CodingWAV, fmt.Sprintf("a%d", i), time.Second, 70)
		e.AddModel(c)
	}
	e.AddModel(mheg.NewComposite(id(10), id(1), id(2)))
	rt, err := e.NewRT(id(10), "stage")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rt)
	clock.Run()
	e.Delete(rt)

	content, composite := read("content"), read("composite")
	if d := (counts{content.created - beforeContent.created, content.run - beforeContent.run, content.destroyed - beforeContent.destroyed}); d != (counts{2, 2, 2}) {
		t.Errorf("content series moved by %+v, want {2 2 2}", d)
	}
	if d := (counts{composite.created - beforeComposite.created, composite.run - beforeComposite.run, composite.destroyed - beforeComposite.destroyed}); d != (counts{1, 1, 1}) {
		t.Errorf("composite series moved by %+v, want {1 1 1}", d)
	}
	if got, want := rtCreated.byClass[mheg.ClassContent].Load(), obs.GetCounter("mheg_rt_created_total", "class", "content"); got != want {
		t.Errorf("kept counter %p is not the registry's series %p", got, want)
	}

	// A class outside the table still counts, in its own series.
	before := series("mheg_rt_run_total", "ClassID(99)")
	rtRun.inc(mheg.ClassID(99))
	if got := series("mheg_rt_run_total", "ClassID(99)") - before; got != 1 {
		t.Errorf("out-of-table class counted %d, want 1", got)
	}
}

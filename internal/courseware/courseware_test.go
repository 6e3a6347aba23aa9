package courseware

import (
	"strings"
	"testing"
	"time"

	"mits/internal/document"
	"mits/internal/media"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/mheg/engine"
	"mits/internal/sim"
)

func TestIDAllocator(t *testing.T) {
	a := NewIDAllocator("app", 10)
	if a.Next() != (mheg.ID{App: "app", Num: 10}) || a.Next() != (mheg.ID{App: "app", Num: 11}) {
		t.Error("sequential allocation broken")
	}
	if start := a.Reserve(5); start != 12 {
		t.Errorf("Reserve start %d, want 12", start)
	}
	if a.Next() != (mheg.ID{App: "app", Num: 17}) {
		t.Error("Reserve did not advance")
	}
	if a.next != 18 {
		t.Errorf("next=%d", a.next)
	}
}

func TestButtonGroup(t *testing.T) {
	ids := NewIDAllocator("lib", 1)
	g := Button(ids, "Play", mheg.Act(mheg.OpRun, mheg.ID{App: "lib", Num: 99}))
	if len(g.Objects) != 3 {
		t.Fatalf("button group has %d objects, want 3", len(g.Objects))
	}
	c := g.Container(ids.Next())
	if err := c.Validate(); err != nil {
		t.Fatalf("button container invalid: %v", err)
	}
	// The root composite arms the click link.
	root := g.Objects[len(g.Objects)-1].(*mheg.Composite)
	if root.ID != g.Root || len(root.Links) != 1 {
		t.Errorf("root composite %+v", root)
	}
}

func TestButtonClickFires(t *testing.T) {
	clock := sim.NewClock()
	e := engine.New(clock)
	ids := NewIDAllocator("lib", 1)
	target := mheg.NewImageContent(ids.Next(), "store/x.jpg", mheg.Size{})
	e.AddModel(target)
	g := Button(ids, "Show", mheg.Act(mheg.OpNew, target.ID), mheg.Act(mheg.OpRun, target.ID))
	for _, o := range g.Objects {
		if err := e.AddModel(o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.NewRT(g.Root, "ui"); err != nil {
		t.Fatal(err)
	}
	// The button content is the composite's only component.
	btnContent := g.Objects[0].(*mheg.Content)
	e.Select(e.RTsOf(btnContent.ID)[0])
	if len(e.RTsOf(target.ID)) != 1 {
		t.Error("button click did not create the target")
	}
}

func TestMenuGroup(t *testing.T) {
	ids := NewIDAllocator("lib", 1)
	tgt := mheg.ID{App: "lib", Num: 50}
	g, err := Menu(ids, "main", MenuChoice{Label: "classroom", Effect: []mheg.ElementaryAction{mheg.Act(mheg.OpRun, tgt)}},
		MenuChoice{Label: "library", Effect: []mheg.ElementaryAction{mheg.Act(mheg.OpStop, tgt)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Objects) != 4 { // content + 2 links + composite
		t.Errorf("menu group %d objects, want 4", len(g.Objects))
	}
	if _, err := Menu(ids, "empty"); err == nil {
		t.Error("empty menu accepted")
	}

	// Selecting an option fires only its link.
	clock := sim.NewClock()
	e := engine.New(clock)
	timed, _ := mheg.NewAudioContent(tgt, media.CodingWAV, "x", time.Minute, 70)
	e.AddModel(timed)
	e.NewRT(tgt, "")
	for _, o := range g.Objects {
		e.AddModel(o)
	}
	e.NewRT(g.Root, "ui")
	menuContent := g.Objects[0].(*mheg.Content)
	e.SetSelection(e.RTsOf(menuContent.ID)[0], mheg.StringValue("classroom"))
	rt, _ := e.RT(e.RTsOf(tgt)[0])
	if rt.Running != mheg.StatusRunning {
		t.Error("menu selection did not run the target")
	}
}

func TestEntryFieldStoresInput(t *testing.T) {
	ids := NewIDAllocator("lib", 1)
	g := EntryField(ids, "student-number", mheg.Act(mheg.OpSetHighlight, mheg.ID{App: "lib", Num: 1}, mheg.BoolValue(true)))
	if len(g.Objects) != 4 {
		t.Fatalf("entry group %d objects, want 4", len(g.Objects))
	}
	clock := sim.NewClock()
	e := engine.New(clock)
	for _, o := range g.Objects {
		e.AddModel(o)
	}
	e.NewRT(g.Root, "ui")
	field := g.Objects[0].(*mheg.Content)
	e.Input(e.RTsOf(field.ID)[0], mheg.StringValue("880123"))
	rt, _ := e.RT(e.RTsOf(field.ID)[0])
	if !rt.Highlight {
		t.Error("input event did not fire the entry link")
	}
}

func TestHyperobject(t *testing.T) {
	ids := NewIDAllocator("lib", 1)
	out := OutputMedia(ids, media.CodingWAV, "store/greeting.wav", mheg.Size{}, 3*time.Second)
	g := Hyperobject(ids, "Hear greeting", out)
	clock := sim.NewClock()
	e := engine.New(clock)
	for _, o := range g.Objects {
		if err := e.AddModel(o); err != nil {
			t.Fatal(err)
		}
	}
	e.NewRT(g.Root, "ui")
	input := g.Objects[0].(*mheg.Content)
	e.Select(e.RTsOf(input.ID)[0])
	if len(e.RTsOf(out.Root)) != 1 {
		t.Fatal("hyperobject selection did not present the output")
	}
	clock.Run()
	rt := e.RTsOf(out.Root)
	if len(rt) == 0 {
		t.Fatal("output vanished")
	}
	o, _ := e.RT(rt[0])
	if o.Running != mheg.StatusFinished {
		t.Error("audio output did not play to completion")
	}
}

func TestOutputText(t *testing.T) {
	ids := NewIDAllocator("lib", 1)
	g := OutputText(ids, "hello")
	if len(g.Objects) != 1 {
		t.Error("output text group")
	}
	c := g.Objects[0].(*mheg.Content)
	if txt, err := media.TextContent(c.Coding, c.Inline); err != nil || txt != "hello" {
		t.Errorf("text %q err %v", txt, err)
	}
}

func TestChooseArchitecture(t *testing.T) {
	cases := []struct {
		p    StudentProfile
		want Architecture
	}{
		{StudentProfile{RiskyPractice: true}, SimulationBased},
		{StudentProfile{SkillTraining: true}, CaseBasedTeaching},
		{StudentProfile{OpenEnded: true, Sophisticated: true}, LearningByExploring},
		{StudentProfile{OpenEnded: true}, IncidentalLearning},
		{StudentProfile{Sophisticated: true}, LearningByReflection},
		{StudentProfile{}, GoalDirectedLearning},
	}
	for _, c := range cases {
		if got := ChooseArchitecture(c.p); got != c.want {
			t.Errorf("ChooseArchitecture(%+v)=%v, want %v", c.p, got, c.want)
		}
	}
	for a := SimulationBased; a <= GoalDirectedLearning; a++ {
		if a.String() == "" || strings.HasPrefix(a.String(), "Architecture(") {
			t.Errorf("architecture %d has no name", a)
		}
		f := FrameworkFor(a)
		if f.Guidance == "" {
			t.Errorf("%v framework has no guidance", a)
		}
	}
	if HypermediaModel.String() != "hypermedia" || InteractiveModel.String() != "interactive-multimedia" {
		t.Error("DocumentModel.String")
	}
}

func TestFrameworkSkeletons(t *testing.T) {
	// Exploration → hypermedia skeleton.
	f := FrameworkFor(LearningByExploring)
	imd, hyper, err := f.Skeleton("Networks", []string{"Intro", "ATM", "IP"})
	if err != nil {
		t.Fatal(err)
	}
	if imd != nil || hyper == nil {
		t.Fatal("exploring framework should yield a hypermedia doc")
	}
	if len(hyper.Pages) != 3 {
		t.Errorf("pages=%d", len(hyper.Pages))
	}
	if err := hyper.Validate(); err != nil {
		t.Errorf("skeleton invalid: %v", err)
	}

	// Goal-directed → interactive skeleton.
	f2 := FrameworkFor(GoalDirectedLearning)
	imd2, hyper2, err := f2.Skeleton("Safety", nil)
	if err != nil {
		t.Fatal(err)
	}
	if imd2 == nil || hyper2 != nil {
		t.Fatal("goal-directed framework should yield an interactive doc")
	}
	if err := imd2.Validate(); err != nil {
		t.Errorf("skeleton invalid: %v", err)
	}
	if _, _, err := f2.Skeleton("", nil); err == nil {
		t.Error("empty title accepted")
	}
}

func TestQuizSceneTemplate(t *testing.T) {
	s, err := QuizScene("q1", "What is the ATM cell size?", []QuizOption{
		{Label: "53 bytes", Correct: true},
		{Label: "64 bytes", Feedback: "64 is a common buffer size, not the cell size."},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := &document.IMDoc{Title: "Quiz", Sections: []*document.Section{{Title: "Q", Scenes: []*document.Scene{s}}}}
	if err := doc.Validate(); err != nil {
		t.Fatalf("quiz scene invalid: %v", err)
	}
	if len(s.Behaviors) != 2 {
		t.Errorf("behaviors=%d", len(s.Behaviors))
	}
	if _, err := QuizScene("q2", "?", []QuizOption{{Label: "only one"}}); err == nil {
		t.Error("single-option quiz accepted")
	}
}

func TestTemplates(t *testing.T) {
	vt := VideoTemplate{At: document.Region{W: 352, H: 240}, Duration: 10 * time.Second, Channel: "stage"}
	v := vt.New("clip1", "store/clip1.mpg")
	if v.Kind != document.ObjVideo || v.Duration != 10*time.Second || v.Media != "store/clip1.mpg" {
		t.Errorf("video template %+v", v)
	}
	at := AudioTemplate{Duration: 5 * time.Second, Volume: 80, Channel: "audio"}
	a := at.New("nar1", "store/nar1.wav")
	if a.Kind != document.ObjAudio || a.Volume != 80 {
		t.Errorf("audio template %+v", a)
	}
}

// ---- compiler tests ----

func TestCompileIMDProducesValidContainer(t *testing.T) {
	doc := document.SampleATMCourse()
	out, err := CompileIMD(doc, "atm")
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Container.Validate(); err != nil {
		t.Fatalf("compiled container invalid: %v", err)
	}
	if len(out.Scenes) != 4 {
		t.Errorf("scenes=%d", len(out.Scenes))
	}
	// Each scene object is addressable.
	for _, key := range []string{"cells/text1", "cells/choice1", "intro/welcome-video", "quiz/ans53"} {
		if _, ok := out.Objects[key]; !ok {
			t.Errorf("object %q missing from manifest", key)
		}
	}
	// The container round-trips through interchange coding.
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.ASN1().Decode(data); err != nil {
		t.Fatal(err)
	}
	// Media refs collected for the production pipeline.
	if len(out.MediaRefs) == 0 {
		t.Error("no media refs collected")
	}
	// Descriptor present with MPEG need.
	foundMPEG := false
	for _, n := range out.Descriptor.Needs {
		if n.Coding == media.CodingMPEG {
			foundMPEG = true
		}
	}
	if !foundMPEG {
		t.Error("descriptor lacks MPEG resource need")
	}
	// All but the last scene got Continue buttons.
	if len(out.AdvanceButtons) != 3 {
		t.Errorf("advance buttons=%d, want 3", len(out.AdvanceButtons))
	}
}

func TestCompileIMDRejectsInvalidDoc(t *testing.T) {
	doc := document.SampleATMCourse()
	doc.Title = ""
	if _, err := CompileIMD(doc, "x"); err == nil {
		t.Error("invalid doc compiled")
	}
	noTimeline := document.SampleATMCourse()
	s := sceneOf(noTimeline, "quiz")
	s.Timeline = nil
	if _, err := CompileIMD(noTimeline, "x"); err == nil || !strings.Contains(err.Error(), "timeline") {
		t.Errorf("scene without timeline compiled (err=%v)", err)
	}
}

// playCourse ingests a compiled course into an engine and runs its root.
func playCourse(t *testing.T, out *Compiled) (*engine.Engine, *sim.Clock, map[mheg.ID][]engine.EventKind) {
	t.Helper()
	clock := sim.NewClock()
	history := make(map[mheg.ID][]engine.EventKind)
	e := engine.New(clock, engine.WithRenderer(engine.RendererFunc(func(ev engine.Event) {
		history[ev.Model] = append(history[ev.Model], ev.Kind)
	})))
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(data); err != nil {
		t.Fatal(err)
	}
	rt, err := e.NewRT(out.Root, "main")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rt)
	return e, clock, history
}

func has(kinds []engine.EventKind, k engine.EventKind) bool {
	for _, v := range kinds {
		if v == k {
			return true
		}
	}
	return false
}

func TestCompiledATMCoursePassivePlayback(t *testing.T) {
	out, err := CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	e, clock, history := playCourse(t, out)
	clock.Run()

	// Scene 1 (intro) resolves fully: 8s video → auto-advance to the
	// cells scene; its text1 runs 20s then image1 appears. The
	// switching scene auto-advances at 30s. Quiz waits for interaction.
	video := out.Objects["intro/welcome-video"]
	if !has(history[video], engine.EvFinished) {
		t.Error("welcome video never finished")
	}
	text1 := out.Objects["cells/text1"]
	if !has(history[text1], engine.EvRan) {
		t.Error("cells scene never started (auto-advance failed)")
	}
	image1 := out.Objects["cells/image1"]
	if !has(history[image1], engine.EvRan) {
		t.Error("image1 never appeared after text1")
	}
	question := out.Objects["quiz/question"]
	if has(history[question], engine.EvRan) {
		t.Error("quiz started without user advancing past the cells scene")
	}

	// The student clicks Continue on the cells scene.
	contBtn := out.AdvanceButtons["cells"]
	e.Select(e.RTsOf(contBtn)[0])
	clock.Run()
	anim := out.Objects["switching/anim1"]
	if !has(history[anim], engine.EvRan) {
		t.Error("switching scene did not start after Continue")
	}
	if !has(history[question], engine.EvRan) {
		t.Error("quiz did not start after switching auto-advanced")
	}
}

func TestCompiledATMCourseInteraction(t *testing.T) {
	out, err := CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	e, clock, history := playCourse(t, out)

	// At 10s into intro... intro lasts 8s, then cells starts at 8s.
	// At 12s the student clicks choice1 (4s into the 20s text).
	clock.After(12*time.Second, func(sim.Time) {
		choice := out.Objects["cells/choice1"]
		e.Select(e.RTsOf(choice)[0])
	})
	clock.RunUntil(sim.Time(13 * time.Second))
	image1 := out.Objects["cells/image1"]
	if !has(history[image1], engine.EvRan) {
		t.Error("choice1 click did not reveal image1 early")
	}

	// Quiz: answer correctly, feedback appears.
	clock.Run() // let everything settle; course sits at quiz
	right := out.Objects["quiz/right"]
	if has(history[right], engine.EvRan) {
		t.Fatal("feedback appeared before answering")
	}
	ans := out.Objects["quiz/ans53"]
	e.Select(e.RTsOf(ans)[0])
	if !has(history[right], engine.EvRan) {
		t.Error("correct-answer feedback did not appear")
	}
}

func TestCompiledHyperCourseNavigation(t *testing.T) {
	out, err := CompileHyper(document.SampleHyperCourse(), "net")
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Container.Validate(); err != nil {
		t.Fatal(err)
	}
	e, _, history := playCourse(t, out)

	// Start page s1 is running; s2 is not.
	s1text := out.Objects["s1/s1-text"]
	if !has(history[s1text], engine.EvRan) {
		t.Fatal("start page content not presented")
	}
	s2text := out.Objects["s2/s2-text"]
	if has(history[s2text], engine.EvRan) {
		t.Fatal("non-start page presented")
	}

	// Click "Next Section" → s2 presented.
	next1 := out.Objects["s1/next1"]
	e.Select(e.RTsOf(next1)[0])
	if !has(history[s2text], engine.EvRan) {
		t.Error("navigation to s2 failed")
	}

	// Follow the hot word from s1 — wait, we're on s2; go back first.
	prev2 := out.Objects["s2/prev2"]
	e.Select(e.RTsOf(prev2)[0])
	word := out.Objects["s1/w-protocol"]
	e.Select(e.RTsOf(word)[0])
	gloss := out.Objects["glossary-protocol/g-text"]
	if !has(history[gloss], engine.EvRan) {
		t.Error("hot word did not open the glossary")
	}

	// Quiz branch: wrong answer leads to review page.
	back := out.Objects["glossary-protocol/back"]
	e.Select(e.RTsOf(back)[0])
	test1 := out.Objects["s1/test1"]
	e.Select(e.RTsOf(test1)[0])
	wrongBtn := out.Objects["q1/q1-wrong"]
	e.Select(e.RTsOf(wrongBtn)[0])
	review := out.Objects["q1-incorrect/rev-text"]
	if !has(history[review], engine.EvRan) {
		t.Error("wrong answer did not reach the review page")
	}
}

func TestCompileHyperRejectsInvalid(t *testing.T) {
	doc := document.SampleHyperCourse()
	doc.Pages = nil
	if _, err := CompileHyper(doc, "x"); err == nil {
		t.Error("invalid hyper doc compiled")
	}
}

func TestCompiledCourseSGMLInterchange(t *testing.T) {
	// Author-site output in SGML, presentation-site ingest: the full
	// heterogeneous interchange path of Fig 3.2.
	out, err := CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	text, err := codec.SGML().Encode(out.Container)
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock()
	e := engine.New(clock, engine.WithEncoding(codec.SGML()))
	if _, err := e.Ingest(text); err != nil {
		t.Fatalf("SGML ingest: %v", err)
	}
	rt, err := e.NewRT(out.Root, "main")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rt)
	clock.Run()
	if clock.Now() < sim.Time(8*time.Second) {
		t.Errorf("course playback via SGML too short: %v", clock.Now())
	}
}

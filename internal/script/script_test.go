package script

import (
	"strings"
	"testing"
	"time"

	"mits/internal/media"
	"mits/internal/mheg"
	"mits/internal/mheg/engine"
	"mits/internal/sim"
)

func id(n uint32) mheg.ID { return mheg.ID{App: "scr", Num: n} }

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"only comments", "# nothing\n  # here"},
		{"unknown command", "frobnicate x"},
		{"bad goto", "goto nowhere"},
		{"bad duration", "wait lots"},
		{"negative duration", "wait -1s"},
		{"bad waitfor status", "waitfor x started"},
		{"if without goto", "if a == 1 nowhere"},
		{"if without op", "if a goto l\nlabel l\nstop"},
		{"duplicate label", "label x\nlabel x\nstop"},
		{"run without object", "run"},
		{"set arity", "set a"},
	}
	for _, c := range cases {
		if _, err := compile([]byte(c.src)); err == nil {
			t.Errorf("%s: compiled", c.name)
		}
	}
}

func TestCompileBasics(t *testing.T) {
	src := `
# a comment
set tries 0
label loop
add tries 1
if tries < 3 goto loop
say done after $tries tries
stop
`
	p, err := compile([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.instrs) == 0 {
		t.Fatal("no instructions")
	}
}

// stubHost implements Host with canned state for interpreter tests.
type stubHost struct {
	clock   *sim.Clock
	applied []string
	said    []string
	status  map[string]string
	reply   map[string]string
	watch   map[string][]func()
}

func newStubHost() *stubHost {
	return &stubHost{
		clock:  sim.NewClock(),
		status: make(map[string]string),
		reply:  make(map[string]string),
		watch:  make(map[string][]func()),
	}
}

func (s *stubHost) After(d time.Duration, f func()) {
	s.clock.After(d, func(sim.Time) { f() })
}
func (s *stubHost) Apply(verb, alias, channel string) error {
	s.applied = append(s.applied, verb+" "+alias)
	if verb == "run" {
		s.status[alias] = "running"
	}
	if verb == "stopobj" {
		s.status[alias] = "stopped"
	}
	return nil
}
func (s *stubHost) Status(alias string) (string, error) {
	if st, ok := s.status[alias]; ok {
		return st, nil
	}
	return "stopped", nil
}
func (s *stubHost) Reply(alias string) (string, error) { return s.reply[alias], nil }
func (s *stubHost) WatchStatus(alias, status string, f func()) error {
	s.watch[alias+"/"+status] = append(s.watch[alias+"/"+status], f)
	return nil
}
func (s *stubHost) fire(alias, status string) {
	key := alias + "/" + status
	fns := s.watch[key]
	delete(s.watch, key)
	s.status[alias] = status
	for _, f := range fns {
		f()
	}
}
func (s *stubHost) Say(text string) { s.said = append(s.said, text) }

func mustCompile(t *testing.T, src string) *program {
	t.Helper()
	p, err := compile([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStraightLineExecution(t *testing.T) {
	h := newStubHost()
	in := start(h, mustCompile(t, `
run intro
set x 5
add x 3
say x is $x
stop
run never-reached
`))
	if !in.Done() || in.Err() != nil {
		t.Fatalf("done=%v err=%v", in.Done(), in.Err())
	}
	if in.Var("x") != "8" {
		t.Errorf("x=%q", in.Var("x"))
	}
	if len(h.said) != 1 || h.said[0] != "x is 8" {
		t.Errorf("said %v", h.said)
	}
	if len(h.applied) != 1 || h.applied[0] != "run intro" {
		t.Errorf("applied %v", h.applied)
	}
}

func TestWaitResumesOnVirtualTime(t *testing.T) {
	h := newStubHost()
	in := start(h, mustCompile(t, `
say before
wait 5s
say after
`))
	if in.Done() {
		t.Fatal("done before the wait elapsed")
	}
	if len(h.said) != 1 {
		t.Fatalf("said %v", h.said)
	}
	h.clock.Run()
	if !in.Done() || len(h.said) != 2 || h.said[1] != "after" {
		t.Errorf("after clock: done=%v said=%v", in.Done(), h.said)
	}
	if h.clock.Now() != sim.Time(5*time.Second) {
		t.Errorf("clock at %v", h.clock.Now())
	}
}

func TestWaitForBlocksAndResumes(t *testing.T) {
	h := newStubHost()
	in := start(h, mustCompile(t, `
run video
waitfor video finished
say over
`))
	if in.Done() {
		t.Fatal("did not block on waitfor")
	}
	h.fire("video", "finished")
	if !in.Done() || len(h.said) != 1 {
		t.Errorf("done=%v said=%v", in.Done(), h.said)
	}
}

func TestWaitForAlreadySatisfied(t *testing.T) {
	h := newStubHost()
	h.status["video"] = "finished"
	in := start(h, mustCompile(t, `
waitfor video finished
say immediate
`))
	if !in.Done() || len(h.said) != 1 {
		t.Error("waitfor on satisfied status should not block")
	}
}

func TestBranchingOnReply(t *testing.T) {
	run := func(reply string) []string {
		h := newStubHost()
		h.reply["quiz"] = reply
		start(h, mustCompile(t, `
if reply(quiz) == "53 bytes" goto praise
say wrong
stop
label praise
say right
`))
		return h.said
	}
	if got := run("53 bytes"); len(got) != 1 || got[0] != "right" {
		t.Errorf("correct reply → %v", got)
	}
	if got := run("64 bytes"); len(got) != 1 || got[0] != "wrong" {
		t.Errorf("wrong reply → %v", got)
	}
}

func TestBranchingOnStatusAndNumbers(t *testing.T) {
	h := newStubHost()
	h.status["video"] = "running"
	in := start(h, mustCompile(t, `
set n 10
if status(video) == "running" goto a
say unreachable
stop
label a
if n >= 10 goto b
say unreachable2
stop
label b
if n < 100 goto c
stop
label c
say all-passed
`))
	if !in.Done() || len(h.said) != 1 || h.said[0] != "all-passed" {
		t.Errorf("said %v err=%v", h.said, in.Err())
	}
}

func TestLoopWithCounter(t *testing.T) {
	h := newStubHost()
	in := start(h, mustCompile(t, `
set tries 0
label loop
add tries 1
run attempt
if tries < 3 goto loop
say tried $tries times
`))
	if !in.Done() || in.Err() != nil {
		t.Fatalf("err=%v", in.Err())
	}
	count := 0
	for _, a := range h.applied {
		if a == "run attempt" {
			count++
		}
	}
	if count != 3 || h.said[0] != "tried 3 times" {
		t.Errorf("applied %v said %v", h.applied, h.said)
	}
}

func TestRunawayLoopDetected(t *testing.T) {
	h := newStubHost()
	in := start(h, mustCompile(t, `
label forever
goto forever
`))
	if !in.Done() || in.Err() == nil || !strings.Contains(in.Err().Error(), "runaway") {
		t.Errorf("runaway loop not detected: done=%v err=%v", in.Done(), in.Err())
	}
}

func TestEngineHostEndToEnd(t *testing.T) {
	// The Fig 2.5 scenario: a script teaches a section, waits for it,
	// asks a quiz, and branches on the student's reply — with real MHEG
	// objects on a real engine.
	clock := sim.NewClock()
	e := engine.New(clock)
	intro, err := mheg.NewAudioContent(id(1), media.CodingWAV, "intro", 5*time.Second, 70)
	if err != nil {
		t.Fatal(err)
	}
	e.AddModel(intro)
	quiz := mheg.NewTextContent(id(2), "How long is a cell?")
	e.AddModel(quiz)
	praise := mheg.NewTextContent(id(3), "Correct!")
	e.AddModel(praise)
	review := mheg.NewTextContent(id(4), "Let's review.")
	e.AddModel(review)

	src := []byte(`
run intro
waitfor intro finished
new quiz stage
run quiz
wait 2s
if reply(quiz) == "53" goto praise
run review
stop
label praise
run praise
say student got it on the first try
`)
	scriptObj := mheg.NewScript(id(10), Language, src)
	e.AddModel(scriptObj)

	var said []string
	inst, err := Activate(e, id(10), map[string]mheg.ID{
		"intro": id(1), "quiz": id(2), "praise": id(3), "review": id(4),
	}, func(s string) { said = append(said, s) })
	if err != nil {
		t.Fatal(err)
	}

	// While the intro plays, the student answers the quiz at t=6s
	// (quiz appears at 5s when the intro finishes).
	clock.After(6*time.Second, func(sim.Time) {
		rts := e.RTsOf(id(2))
		if len(rts) == 0 {
			t.Error("quiz not instantiated by the script")
			return
		}
		e.SetSelection(rts[0], mheg.StringValue("53"))
	})
	clock.Run()

	if !inst.Done() || inst.Err() != nil {
		t.Fatalf("script done=%v err=%v", inst.Done(), inst.Err())
	}
	if len(e.RTsOf(id(3))) != 1 {
		t.Error("praise not presented")
	}
	if len(e.RTsOf(id(4))) != 0 {
		t.Error("review presented despite the correct answer")
	}
	if len(said) != 1 {
		t.Errorf("said %v", said)
	}

	// The wrong-answer path.
	clock2 := sim.NewClock()
	e2 := engine.New(clock2)
	intro2, _ := mheg.NewAudioContent(id(1), media.CodingWAV, "intro", 5*time.Second, 70)
	e2.AddModel(intro2)
	e2.AddModel(mheg.NewTextContent(id(2), "q"))
	e2.AddModel(mheg.NewTextContent(id(3), "p"))
	e2.AddModel(mheg.NewTextContent(id(4), "r"))
	e2.AddModel(mheg.NewScript(id(10), Language, src))
	inst2, err := Activate(e2, id(10), map[string]mheg.ID{
		"intro": id(1), "quiz": id(2), "praise": id(3), "review": id(4),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock2.After(6*time.Second, func(sim.Time) {
		e2.SetSelection(e2.RTsOf(id(2))[0], mheg.StringValue("48"))
	})
	clock2.Run()
	if !inst2.Done() || len(e2.RTsOf(id(4))) != 1 || len(e2.RTsOf(id(3))) != 0 {
		t.Error("wrong answer did not reach the review branch")
	}
}

func TestActivateValidation(t *testing.T) {
	clock := sim.NewClock()
	e := engine.New(clock)
	if _, err := Activate(e, id(99), nil, nil); err == nil {
		t.Error("activated missing model")
	}
	e.AddModel(mheg.NewTextContent(id(1), "x"))
	if _, err := Activate(e, id(1), nil, nil); err == nil {
		t.Error("activated a non-script")
	}
	e.AddModel(mheg.NewScript(id(2), "other-lang", []byte("x")))
	if _, err := Activate(e, id(2), nil, nil); err == nil {
		t.Error("activated foreign language")
	}
	e.AddModel(mheg.NewScript(id(3), Language, []byte("bogus cmd")))
	if _, err := Activate(e, id(3), nil, nil); err == nil {
		t.Error("activated uncompilable script")
	}
}

func TestEngineHostErrors(t *testing.T) {
	clock := sim.NewClock()
	e := engine.New(clock)
	h := newEngineHost(e, map[string]mheg.ID{})
	if err := h.Apply("run", "ghost", ""); err == nil {
		t.Error("unbound alias ran")
	}
	if _, err := h.Status("ghost"); err == nil {
		t.Error("unbound alias status")
	}
	if _, err := h.Reply("ghost"); err == nil {
		t.Error("unbound alias reply")
	}
	if err := h.WatchStatus("ghost", "running", func() {}); err == nil {
		t.Error("unbound alias watch")
	}
	h2 := newEngineHost(e, map[string]mheg.ID{"x": id(1)})
	if err := h2.Apply("explode", "x", ""); err == nil {
		t.Error("unknown verb applied")
	}
}

func TestPauseResumeDeleteVerbs(t *testing.T) {
	clock := sim.NewClock()
	e := engine.New(clock)
	v := mheg.NewVideoContent(id(1), "v", mheg.Size{}, 10*time.Second)
	e.AddModel(v)
	h := newEngineHost(e, map[string]mheg.ID{"v": id(1)})
	in := start(h, mustCompile(t, `
run v
wait 2s
pause v
wait 3s
resume v
waitfor v finished
say played
delete v
`))
	clock.Run()
	if !in.Done() || in.Err() != nil {
		t.Fatalf("err=%v", in.Err())
	}
	// 2s played + 3s paused + 8s remaining = finish at 13s.
	if clock.Now() != sim.Time(13*time.Second) {
		t.Errorf("clock %v, want 13s", clock.Now())
	}
	if len(e.RTsOf(id(1))) != 0 {
		t.Error("delete verb did not remove the RT")
	}
}

func TestShowHideVerbs(t *testing.T) {
	clock := sim.NewClock()
	e := engine.New(clock)
	e.AddModel(mheg.NewImageContent(id(1), "i", mheg.Size{}))
	h := newEngineHost(e, map[string]mheg.ID{"img": id(1)})
	start(h, mustCompile(t, "new img stage\nhide img\n"))
	rt, _ := e.RT(e.RTsOf(id(1))[0])
	if rt.Visible {
		t.Error("hide did not apply")
	}
	start(h, mustCompile(t, "show img\n"))
	if !rt.Visible {
		t.Error("show did not apply")
	}
	if rt.Channel != "stage" {
		t.Errorf("channel %q", rt.Channel)
	}
}

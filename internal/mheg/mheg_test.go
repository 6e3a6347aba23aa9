package mheg

import (
	"strings"
	"testing"
	"time"

	"mits/internal/media"
)

func id(n uint32) ID { return ID{App: "test", Num: n} }

func TestContentValidate(t *testing.T) {
	c := NewContent(id(1), media.CodingMPEG, "store/paris.mpg")
	if err := c.Validate(); err != nil {
		t.Errorf("referenced content rejected: %v", err)
	}
	if !c.Referenced() {
		t.Error("Referenced()=false for referenced content")
	}

	in := NewInlineContent(id(2), media.CodingASCII, media.EncodeText("hi"))
	if err := in.Validate(); err != nil {
		t.Errorf("inline content rejected: %v", err)
	}
	if in.Referenced() {
		t.Error("Referenced()=true for inline content")
	}

	both := NewContent(id(3), media.CodingJPEG, "x")
	both.Inline = []byte{1}
	if err := both.Validate(); err == nil {
		t.Error("content with both inline and ref accepted")
	}
	neither := NewContent(id(4), media.CodingJPEG, "")
	if err := neither.Validate(); err == nil {
		t.Error("content with neither inline nor ref accepted")
	}
	nocoding := &Content{Common: Common{Class: ClassContent, ID: id(5)}, ContentRef: "x"}
	if err := nocoding.Validate(); err == nil {
		t.Error("content without coding accepted")
	}
	noid := NewContent(ID{}, media.CodingJPEG, "x")
	if err := noid.Validate(); err == nil {
		t.Error("content with zero id accepted")
	}
}

func TestMultiplexedContentValidate(t *testing.T) {
	m := NewMultiplexedContent(id(1), media.CodingMPEG, "store/movie.mpg",
		StreamDesc{StreamID: 1, Class: media.ClassVideo, Coding: media.CodingMPEG},
		StreamDesc{StreamID: 2, Class: media.ClassAudio, Coding: media.CodingWAV},
	)
	if err := m.Validate(); err != nil {
		t.Errorf("valid mux content rejected: %v", err)
	}
	one := NewMultiplexedContent(id(2), media.CodingMPEG, "x",
		StreamDesc{StreamID: 1})
	if err := one.Validate(); err == nil {
		t.Error("single-stream mux content accepted")
	}
	dup := NewMultiplexedContent(id(3), media.CodingMPEG, "x",
		StreamDesc{StreamID: 1}, StreamDesc{StreamID: 1})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate stream ids accepted")
	}
}

func TestCompositeValidate(t *testing.T) {
	c := NewComposite(id(10), id(1), id(2), id(3))
	if err := c.Validate(); err != nil {
		t.Errorf("valid composite rejected: %v", err)
	}
	self := NewComposite(id(11), id(11))
	if err := self.Validate(); err == nil {
		t.Error("self-containing composite accepted")
	}
	dup := NewComposite(id(12), id(1), id(1))
	if err := dup.Validate(); err == nil {
		t.Error("duplicate components accepted")
	}
	zero := NewComposite(id(13), ID{})
	if err := zero.Validate(); err == nil {
		t.Error("zero component id accepted")
	}
}

func TestLinkValidate(t *testing.T) {
	trigger := Condition{Source: id(1), Attr: AttrSelection, Op: OpGreater, Value: IntValue(0)}
	l := NewLink(id(20), trigger, Act(OpRun, id(2)))
	if err := l.Validate(); err != nil {
		t.Errorf("valid link rejected: %v", err)
	}
	noEffect := NewLink(id(21), trigger)
	if err := noEffect.Validate(); err == nil {
		t.Error("link without effect accepted")
	}
	both := NewLink(id(22), trigger, Act(OpRun, id(2)))
	both.Effect = id(9)
	if err := both.Validate(); err == nil {
		t.Error("link with both effect ref and inline accepted")
	}
	badTrigger := NewLink(id(23), Condition{}, Act(OpRun, id(2)))
	if err := badTrigger.Validate(); err == nil {
		t.Error("link with empty trigger accepted")
	}
	refEffect := &Link{Common: Common{Class: ClassLink, ID: id(24)}, Trigger: trigger, Effect: id(9)}
	if err := refEffect.Validate(); err != nil {
		t.Errorf("link with action reference rejected: %v", err)
	}
}

func TestActionValidate(t *testing.T) {
	a := NewAction(id(30), Act(OpRun, id(1)), ActAfter(time.Second, OpStop, id(1)))
	if err := a.Validate(); err != nil {
		t.Errorf("valid action rejected: %v", err)
	}
	empty := NewAction(id(31))
	if err := empty.Validate(); err == nil {
		t.Error("empty action accepted")
	}
	negDelay := NewAction(id(32), ElementaryAction{Op: OpRun, Targets: []ID{id(1)}, Delay: -1})
	if err := negDelay.Validate(); err == nil {
		t.Error("negative delay accepted")
	}
	noTargets := NewAction(id(33), ElementaryAction{Op: OpRun})
	if err := noTargets.Validate(); err == nil {
		t.Error("action without targets accepted")
	}
}

func TestContainerValidate(t *testing.T) {
	c := NewContainer(id(40),
		NewTextContent(id(1), "hello"),
		NewComposite(id(2), id(1)),
	)
	if err := c.Validate(); err != nil {
		t.Errorf("valid container rejected: %v", err)
	}
	dup := NewContainer(id(41), NewTextContent(id(1), "a"), NewTextContent(id(1), "b"))
	if err := dup.Validate(); err == nil {
		t.Error("container with duplicate ids accepted")
	}
	nested := NewContainer(id(42), NewContainer(id(43), NewTextContent(id(44), "x")))
	if err := nested.Validate(); err != nil {
		t.Errorf("nested container rejected: %v", err)
	}
	withNil := &Container{Common: Common{Class: ClassContainer, ID: id(45)}, Items: []Object{nil}}
	if err := withNil.Validate(); err == nil {
		t.Error("container with nil item accepted")
	}
	invalidInner := NewContainer(id(46), NewComposite(id(47), id(47)))
	if err := invalidInner.Validate(); err == nil {
		t.Error("container hiding invalid object accepted")
	}
}

func TestDescriptorNegotiation(t *testing.T) {
	d := NewDescriptor(id(50), id(1), id(2))
	d.Needs = []ResourceNeed{
		{Coding: media.CodingMPEG, BitRate: 1500000, MemoryKB: 2048},
		{Coding: media.CodingWAV, BitRate: 176000, MemoryKB: 64},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	codings := map[media.Coding]bool{media.CodingMPEG: true, media.CodingWAV: true}
	if ok, _ := d.Satisfiable(2000000, 4096, codings); !ok {
		t.Error("capable site rejected")
	}
	if ok, why := d.Satisfiable(100000, 4096, codings); ok || !strings.Contains(why, "bit/s") {
		t.Errorf("slow site accepted (why=%q)", why)
	}
	if ok, why := d.Satisfiable(2000000, 128, codings); ok || !strings.Contains(why, "KB") {
		t.Errorf("small site accepted (why=%q)", why)
	}
	if ok, why := d.Satisfiable(2000000, 4096, map[media.Coding]bool{}); ok || !strings.Contains(why, "unsupported") {
		t.Errorf("codec-less site accepted (why=%q)", why)
	}
	neg := NewDescriptor(id(51))
	neg.Needs = []ResourceNeed{{BitRate: -1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative resource need accepted")
	}
}

func TestScriptValidate(t *testing.T) {
	s := NewScript(id(60), "mits-script", []byte("run intro\n"))
	if err := s.Validate(); err != nil {
		t.Errorf("valid script rejected: %v", err)
	}
	nolang := NewScript(id(61), "", nil)
	if err := nolang.Validate(); err == nil {
		t.Error("script without language accepted")
	}
}

func TestLibraryConstructors(t *testing.T) {
	v := NewVideoContent(id(90), "store/paris.mpg", Size{W: 64, H: 128}, 6*time.Second)
	if v.Coding != media.CodingMPEG || v.OrigSize != (Size{64, 128}) || v.OrigDuration != 6*time.Second {
		t.Errorf("video content %+v", v)
	}
	if err := v.Validate(); err != nil {
		t.Error(err)
	}
	a, err := NewAudioContent(id(91), media.CodingWAV, "store/a.wav", time.Minute, 80)
	if err != nil || a.OrigVolume != 80 {
		t.Errorf("audio content %+v err=%v", a, err)
	}
	if _, err := NewAudioContent(id(92), media.CodingMPEG, "x", 0, 0); err == nil {
		t.Error("NewAudioContent accepted video coding")
	}
	img := NewImageContent(id(93), "store/i.jpg", Size{W: 640, H: 480})
	if err := img.Validate(); err != nil {
		t.Error(err)
	}
	nm := NewNonMediaContent(id(94), CodingHyTime, []byte("<hytime/>"))
	if err := nm.Validate(); err != nil {
		t.Error(err)
	}
}

func TestOnSelectAndOnFinished(t *testing.T) {
	l := OnSelect(id(100), id(1), Act(OpRun, id(2)))
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Trigger.Attr != AttrSelection || l.Trigger.Op != OpGreater {
		t.Errorf("OnSelect trigger %+v", l.Trigger)
	}
	f := OnFinished(id(101), id(1), Act(OpRun, id(2)))
	if f.Trigger.Attr != AttrRunning || !f.Trigger.Value.Equal(IntValue(StatusFinished)) {
		t.Errorf("OnFinished trigger %+v", f.Trigger)
	}
}

func TestRunAllAndRunSequence(t *testing.T) {
	a := RunAll(id(110), id(1), id(2))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 4 {
		t.Errorf("RunAll emitted %d items, want 4 (new+run per target)", len(a.Items))
	}
	s, err := RunSequence(id(111), []time.Duration{0, time.Second}, id(1), id(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Items[2].Delay != time.Second {
		t.Errorf("second target delay %v, want 1s", s.Items[2].Delay)
	}
	if _, err := RunSequence(id(112), []time.Duration{0}, id(1), id(2)); err == nil {
		t.Error("mismatched offsets accepted")
	}
}

func TestCompareOps(t *testing.T) {
	if !OpEqual.Compare(IntValue(3), IntValue(3)) {
		t.Error("3 == 3 failed")
	}
	if OpEqual.Compare(IntValue(3), StringValue("3")) {
		t.Error("cross-kind equality")
	}
	if !OpNotEqual.Compare(BoolValue(true), BoolValue(false)) {
		t.Error("true != false failed")
	}
	if !OpGreater.Compare(IntValue(5), IntValue(3)) || OpGreater.Compare(IntValue(3), IntValue(5)) {
		t.Error("OpGreater wrong")
	}
	if !OpLess.Compare(IntValue(3), IntValue(5)) {
		t.Error("OpLess wrong")
	}
	if OpGreater.Compare(StringValue("b"), StringValue("a")) {
		t.Error("ordering on strings should be false")
	}
}

func TestStringers(t *testing.T) {
	if ClassContent.String() != "content" || ClassID(99).String() == "" {
		t.Error("ClassID.String")
	}
	if id(5).String() != "test:5" {
		t.Error("ID.String")
	}
	if AttrRunning.String() != "running" {
		t.Error("StatusAttr.String")
	}
	if OpRun.String() != "run" {
		t.Error("ActionOp.String")
	}
	if IntValue(7).String() != "7" || BoolValue(true).String() != "true" ||
		StringValue("x").String() != "x" || (Value{}).String() != "<none>" {
		t.Error("Value.String")
	}
	cond := Condition{Source: id(1), Attr: AttrRunning, Op: OpEqual, Value: IntValue(2)}
	if cond.String() != "test:1.running == 2" {
		t.Errorf("Condition.String=%q", cond.String())
	}
}

package document

import (
	"strings"
	"testing"
	"time"
)

func TestSampleDocumentsValidate(t *testing.T) {
	if err := SampleATMCourse().Validate(); err != nil {
		t.Errorf("ATM course: %v", err)
	}
	if err := SampleHyperCourse().Validate(); err != nil {
		t.Errorf("hyper course: %v", err)
	}
}

func TestHyperNavigation(t *testing.T) {
	d := SampleHyperCourse()
	start := d.StartPage()
	if start == nil || start.ID != "s1" {
		t.Fatalf("start page %v", start)
	}
	// next is the page reached by activating item on page.
	next := func(page, item string) string {
		for _, l := range d.Choices(page) {
			if l.Condition == item {
				return l.To
			}
		}
		return ""
	}
	if got := next("s1", "next1"); got != "s2" {
		t.Fatalf("s1/next1 leads to %q", got)
	}
	// Quiz branch: right and wrong answers go to different pages.
	if right, wrong := next("q1", "q1-right"), next("q1", "q1-wrong"); right != "q1-correct" || wrong != "q1-incorrect" {
		t.Errorf("quiz branch %v / %v", right, wrong)
	}
	if got := next("s1", "nonexistent"); got != "" {
		t.Errorf("unknown condition leads to %q", got)
	}
	if got := len(d.Choices("s1")); got != 3 {
		t.Errorf("s1 has %d choices, want 3", got)
	}
	if _, ok := d.Page("nope"); ok {
		t.Error("unknown page found")
	}
	p, _ := d.Page("s1")
	if _, ok := p.Item("next1"); !ok {
		t.Error("item lookup failed")
	}
}

func TestHyperValidateCatchesAuthoringBugs(t *testing.T) {
	base := func() *HyperDoc { return SampleHyperCourse() }

	cases := []struct {
		name   string
		break_ func(*HyperDoc)
		want   string
	}{
		{"no title", func(d *HyperDoc) { d.Title = "" }, "no title"},
		{"no pages", func(d *HyperDoc) { d.Pages = nil }, "no pages"},
		{"dup page", func(d *HyperDoc) { d.Pages = append(d.Pages, &Page{ID: "s1"}) }, "duplicate page"},
		{"bad start", func(d *HyperDoc) { d.Start = "zzz" }, "start page"},
		{"link from unknown", func(d *HyperDoc) {
			d.Links = append(d.Links, NavLink{From: "zzz", Condition: "x", To: "s1"})
		}, "unknown page"},
		{"link to unknown", func(d *HyperDoc) {
			d.Links = append(d.Links, NavLink{From: "s1", Condition: "next1", To: "zzz"})
		}, "unknown page"},
		{"condition not on page", func(d *HyperDoc) {
			d.Links = append(d.Links, NavLink{From: "s1", Condition: "zzz", To: "s2"})
		}, "not on page"},
		{"media as condition", func(d *HyperDoc) {
			d.Links = append(d.Links, NavLink{From: "s1", Condition: "s1-text", To: "s2"})
		}, "plain media"},
		{"unreachable page", func(d *HyperDoc) {
			d.Pages = append(d.Pages, &Page{ID: "island", Items: []PageItem{{ID: "i", Kind: ItemChoice, Text: "x"}}})
		}, "unreachable"},
		{"empty item id", func(d *HyperDoc) {
			d.Pages[0].Items = append(d.Pages[0].Items, PageItem{Kind: ItemChoice, Text: "x"})
		}, "empty id"},
		{"media without ref", func(d *HyperDoc) {
			d.Pages[0].Items = append(d.Pages[0].Items, PageItem{ID: "m2", Kind: ItemMedia})
		}, "no media reference"},
		{"choice without text", func(d *HyperDoc) {
			d.Pages[0].Items = append(d.Pages[0].Items, PageItem{ID: "c2", Kind: ItemChoice})
		}, "no text"},
		{"dup item", func(d *HyperDoc) {
			d.Pages[0].Items = append(d.Pages[0].Items, PageItem{ID: "next1", Kind: ItemChoice, Text: "x"})
		}, "duplicate item"},
	}
	for _, c := range cases {
		d := base()
		c.break_(d)
		err := d.Validate()
		if err == nil {
			t.Errorf("%s: validation passed", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// Scene finds a scene by id anywhere in the hierarchy.
func (d *IMDoc) Scene(id string) (*Scene, bool) {
	for _, s := range d.AllScenes() {
		if s.ID == id {
			return s, true
		}
	}
	return nil, false
}

func TestIMDocStructure(t *testing.T) {
	d := SampleATMCourse()
	scenes := d.AllScenes()
	if len(scenes) != 4 {
		t.Fatalf("AllScenes=%d, want 4", len(scenes))
	}
	// Order follows the section hierarchy depth-first.
	wantOrder := []string{"intro", "cells", "switching", "quiz"}
	for i, s := range scenes {
		if s.ID != wantOrder[i] {
			t.Errorf("scene %d = %q, want %q", i, s.ID, wantOrder[i])
		}
	}
	s, ok := d.Scene("cells")
	if !ok {
		t.Fatal("scene cells not found")
	}
	if _, ok := s.Object("choice1"); !ok {
		t.Error("object choice1 not found")
	}
	if _, ok := s.Object("zzz"); ok {
		t.Error("unknown object found")
	}
	if _, ok := d.Scene("zzz"); ok {
		t.Error("unknown scene found")
	}
}

func TestIMDocValidateCatchesAuthoringBugs(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*IMDoc)
		want   string
	}{
		{"no title", func(d *IMDoc) { d.Title = "" }, "no title"},
		{"no scenes", func(d *IMDoc) { d.Sections = nil }, "no scenes"},
		{"dup scene", func(d *IMDoc) {
			d.Sections[0].Scenes = append(d.Sections[0].Scenes, &Scene{ID: "quiz"})
		}, "duplicate scene"},
		{"dup object", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Objects = append(s.Objects, SceneObject{ID: "text1", Kind: ObjText, Text: "x"})
		}, "duplicate object"},
		{"video without media", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Objects = append(s.Objects, SceneObject{ID: "v2", Kind: ObjVideo})
		}, "no media reference"},
		{"button without label", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Objects = append(s.Objects, SceneObject{ID: "b2", Kind: ObjButton})
		}, "no label"},
		{"negative duration", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Objects = append(s.Objects, SceneObject{ID: "t9", Kind: ObjText, Text: "x", Duration: -time.Second})
		}, "negative duration"},
		{"timeline unknown object", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Timeline = append(s.Timeline, Placement{Object: "zzz"})
		}, "unknown object"},
		{"double placement", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Timeline = append(s.Timeline, Placement{Object: "text1"})
		}, "placed twice"},
		{"self relative", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Timeline = append(s.Timeline, Placement{Object: "choice1", Kind: PlaceAfter, Ref: "choice1"})
		}, "itself"},
		{"behavior no conditions", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Behaviors = append(s.Behaviors, Behavior{Actions: []BAction{{Verb: BStop, Targets: []string{"text1"}}}})
		}, "no conditions"},
		{"behavior no actions", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Behaviors = append(s.Behaviors, Behavior{Conditions: []BCondition{{Object: "text1"}}})
		}, "no actions"},
		{"behavior unknown watch", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Behaviors = append(s.Behaviors, Behavior{
				Conditions: []BCondition{{Object: "zzz"}},
				Actions:    []BAction{{Verb: BStop, Targets: []string{"text1"}}}})
		}, "unknown object"},
		{"behavior unknown target", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Behaviors = append(s.Behaviors, Behavior{
				Conditions: []BCondition{{Object: "text1"}},
				Actions:    []BAction{{Verb: BStop, Targets: []string{"zzz"}}}})
		}, "unknown object"},
		{"goto unknown scene", func(d *IMDoc) {
			s, _ := d.Scene("cells")
			s.Behaviors = append(s.Behaviors, Behavior{
				Conditions: []BCondition{{Object: "choice1"}},
				Actions:    []BAction{{Verb: BGoto, Targets: []string{"zzz"}}}})
		}, "unknown scene"},
	}
	for _, c := range cases {
		d := SampleATMCourse()
		c.break_(d)
		err := d.Validate()
		if err == nil {
			t.Errorf("%s: validation passed", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if ItemMedia.String() != "media" || ItemWord.String() != "word" || ItemChoice.String() != "choice" {
		t.Error("ItemKind.String")
	}
	if ObjVideo.String() != "video" || ObjButton.String() != "button" || ObjectKind(9).String() == "" {
		t.Error("ObjectKind.String")
	}
	if BEvClicked.String() != "clicked" || BEvent(9).String() == "" {
		t.Error("BEvent.String")
	}
	if BStop.String() != "stop" || BVerb(99).String() == "" {
		t.Error("BVerb.String")
	}
	if ObjButton.Presentable() || !ObjVideo.Presentable() {
		t.Error("Presentable")
	}
}

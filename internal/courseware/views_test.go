package courseware

import (
	"strings"
	"testing"

	"mits/internal/document"
)

func TestLogicalView(t *testing.T) {
	v := LogicalView(document.SampleATMCourse())
	for _, want := range []string{
		`course "ATM Technology"`,
		`section "Introduction"`,
		`scene "cells" (4 objects)`,
		"welcome-video",
		"store/atm/welcome.mpg",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("logical view missing %q:\n%s", want, v)
		}
	}
}

// sceneOf finds a scene anywhere in a document's hierarchy.
func sceneOf(doc *document.IMDoc, id string) *document.Scene {
	for _, s := range doc.AllScenes() {
		if s.ID == id {
			return s
		}
	}
	return nil
}

func TestLayoutView(t *testing.T) {
	doc := document.SampleATMCourse()
	s := sceneOf(doc, "cells")
	v := LayoutView(s)
	for _, want := range []string{"text1", "( 420,   0)", `channel "controls"`, "400x300"} {
		if !strings.Contains(v, want) {
			t.Errorf("layout view missing %q:\n%s", want, v)
		}
	}
}

func TestTimelineView(t *testing.T) {
	doc := document.SampleATMCourse()
	s := sceneOf(doc, "cells")
	v, err := TimelineView(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"time-line", "text1", "█", "image1", "20s+0s"} {
		if !strings.Contains(v, want) {
			t.Errorf("timeline view missing %q:\n%s", want, v)
		}
	}
	// An entry after an unknown-duration object renders as event-driven.
	open := &document.Scene{
		ID: "open",
		Objects: []document.SceneObject{
			{ID: "menu", Kind: document.ObjText, Text: "pick one"}, // no duration
			{ID: "next", Kind: document.ObjText, Text: "next"},
		},
		Timeline: []document.Placement{
			{Object: "menu", Kind: document.PlaceAt},
			{Object: "next", Kind: document.PlaceAfter, Ref: "menu"},
		},
	}
	ov, err := TimelineView(open)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ov, "(after menu finishes)") {
		t.Errorf("event-driven entry not rendered:\n%s", ov)
	}
	// A cyclic timeline is reported, not rendered.
	bad := &document.Scene{
		ID: "x",
		Objects: []document.SceneObject{
			{ID: "a", Kind: document.ObjText, Text: "a"},
			{ID: "b", Kind: document.ObjText, Text: "b"},
		},
		Timeline: []document.Placement{
			{Object: "a", Kind: document.PlaceWith, Ref: "b"},
			{Object: "b", Kind: document.PlaceWith, Ref: "a"},
		},
	}
	if _, err := TimelineView(bad); err == nil {
		t.Error("cyclic timeline rendered")
	}
}

func TestBehaviorView(t *testing.T) {
	doc := document.SampleATMCourse()
	s := sceneOf(doc, "switching")
	v := BehaviorView(s)
	for _, want := range []string{"condition set", "action set", "stopbtn clicked", "stop audio1,text2,anim1"} {
		if !strings.Contains(v, want) {
			t.Errorf("behavior view missing %q:\n%s", want, v)
		}
	}
}

func TestHypermediaViews(t *testing.T) {
	doc := document.SampleHyperCourse()
	pl := PageListView(doc)
	for _, want := range []string{"s1", "Section 1", "next1", `"Next Section"`} {
		if !strings.Contains(pl, want) {
			t.Errorf("page list missing %q:\n%s", want, pl)
		}
	}
	nav := NavigationView(doc, "s1")
	for _, want := range []string{"--[Next Section]--> s2", "--[protocol]--> glossary-protocol"} {
		if !strings.Contains(nav, want) {
			t.Errorf("navigation view missing %q:\n%s", want, nav)
		}
	}
	terminal := NavigationView(doc, "no-such-page")
	if !strings.Contains(terminal, "terminal") {
		t.Errorf("terminal page view %q", terminal)
	}
}

package hytime

import (
	"strings"
	"testing"
	"time"

	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/mheg/codec"
	"mits/internal/mheg/engine"
	"mits/internal/sim"
)

func TestSampleCourseValidates(t *testing.T) {
	d := SampleCourse()
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	if ax, ok := d.temporalAxis(); !ok || ax != "t" {
		t.Errorf("temporal axis %q ok=%v", ax, ok)
	}
}

func TestMarkupRoundTrip(t *testing.T) {
	d := SampleCourse()
	src := d.Markup()
	parsed, err := Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if parsed.id != d.id || parsed.title != d.title {
		t.Errorf("identity lost: %q %q", parsed.id, parsed.title)
	}
	if len(parsed.axes) != 3 || len(parsed.entities) != 5 || len(parsed.FCSs) != 2 ||
		len(parsed.nameLocs) != 4 || len(parsed.Links) != 2 || len(parsed.renditions) != 1 {
		t.Errorf("structure lost: %d axes %d entities %d fcs %d locs %d links %d renditions",
			len(parsed.axes), len(parsed.entities), len(parsed.FCSs),
			len(parsed.nameLocs), len(parsed.Links), len(parsed.renditions))
	}
	cells, ok := parsed.fcs("cells")
	if !ok || len(cells.events) != 3 {
		t.Fatalf("cells fcs %+v", cells)
	}
	ev, _ := cells.event("ev-diagram")
	if x, ok := ev.extent("t"); !ok || x.start != 20000 || x.dur != 10000 {
		t.Errorf("diagram extent %+v", x)
	}
}

func TestParseArchitecturalForms(t *testing.T) {
	// Arbitrary element names carrying the hytime attribute must be
	// recognized (SGML architectural forms).
	src := `<hydoc id="d">
  <axes><axis id="t" unit="s" persecond="1"/></axes>
  <clip hytime="entity" id="e1" system="x.mpg" notation="MPEG"/>
  <schedule hytime="fcs" id="f1" axes="t">
    <showing hytime="event" id="ev1" ref="e1"><extent axis="t" start="0" dur="5"/></showing>
  </schedule>
</hydoc>`
	d, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.FCSs) != 1 || len(d.FCSs[0].events) != 1 {
		t.Errorf("architectural forms not recognized: %+v", d.FCSs)
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"not hydoc", `<other id="x"/>`, "not a HyDoc"},
		{"no id", `<hydoc/>`, "no id"},
		{"dup axis", `<hydoc id="d"><axis id="t"/><axis id="t"/></hydoc>`, "duplicate axis"},
		{"event on undeclared axis", `<hydoc id="d"><axis id="t" persecond="1"/>
			<entity id="e" system="s"/>
			<fcs id="f" axes="t"><event id="ev" ref="e"><extent axis="z" start="0" dur="1"/></event></fcs></hydoc>`,
			"outside fcs"},
		{"event without extents", `<hydoc id="d"><axis id="t" persecond="1"/>
			<entity id="e" system="s"/>
			<fcs id="f" axes="t"><event id="ev" ref="e"/></fcs></hydoc>`, "no extents"},
		{"unknown entity", `<hydoc id="d"><axis id="t" persecond="1"/>
			<fcs id="f" axes="t"><event id="ev" ref="ghost"><extent axis="t" start="0" dur="1"/></event></fcs></hydoc>`,
			"undeclared entity"},
		{"dangling nameloc", `<hydoc id="d"><nameloc id="n" ref="ghost"/></hydoc>`, "unknown id"},
		{"short ilink", `<hydoc id="d"><entity id="e" system="s"/><nameloc id="n" ref="e"/>
			<ilink id="l" endpoints="n"/></hydoc>`, "≥2 endpoints"},
		{"bad rule", `<hydoc id="d"><entity id="e" system="s"/><nameloc id="n" ref="e"/><nameloc id="m" ref="e"/>
			<ilink id="l" endpoints="n m" rule="psychic"/></hydoc>`, "traversal rule"},
		{"rendition from ghost", `<hydoc id="d"><rendition id="r" from="ghost" to="x"/></hydoc>`, "unknown fcs"},
		{"bad treeloc path", `<hydoc id="d"><treeloc id="tl" path="1 banana"/></hydoc>`, "bad path step"},
		{"entity without data", `<hydoc id="d"><entity id="e"/></hydoc>`, "neither system"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.src))
		if err == nil {
			t.Errorf("%s: parsed", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestEngineScheduleQueries(t *testing.T) {
	e := NewEngine(SampleCourse())
	at0, err := e.EventsAt("intro", "t", 0)
	if err != nil || len(at0) != 2 {
		t.Fatalf("EventsAt(0)=%v err=%v", at0, err)
	}
	at25, err := e.EventsAt("cells", "t", 25000)
	if err != nil || len(at25) != 1 || at25[0].id != "ev-diagram" {
		t.Fatalf("EventsAt(25s)=%v", at25)
	}
	span, err := e.Span("cells", "t")
	if err != nil || span != 30000 {
		t.Errorf("span=%d", span)
	}
	if _, err := e.EventsAt("ghost", "t", 0); err == nil {
		t.Error("EventsAt on ghost fcs")
	}
	if _, err := e.Span("ghost", "t"); err == nil {
		t.Error("Span on ghost fcs")
	}
}

func TestEngineLocationResolution(t *testing.T) {
	d := SampleCourse()
	d.treeLocs = append(d.treeLocs, treeLoc{id: "tl-first-axis", path: []int{1, 1}})
	// Re-parse to get the document tree for treelocs.
	parsed, err := Parse(d.Markup())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(parsed)
	id, err := e.resolveLocation("loc-btn")
	if err != nil || id != "ev-btn" {
		t.Errorf("nameloc → %q err=%v", id, err)
	}
	// Tree path 1,1: hydoc → axes → first axis.
	id, err = e.resolveLocation("tl-first-axis")
	if err != nil || id != "t" {
		t.Errorf("treeloc → %q err=%v", id, err)
	}
	// Events and entities self-address.
	if id, _ := e.resolveLocation("ev-text"); id != "ev-text" {
		t.Error("event self-address")
	}
	if id, _ := e.resolveLocation("welcome-clip"); id != "welcome-clip" {
		t.Error("entity self-address")
	}
	if _, err := e.resolveLocation("ghost"); err == nil {
		t.Error("ghost location resolved")
	}
	if e.Resolutions == 0 {
		t.Error("resolution counter idle")
	}
}

func TestEngineTraverse(t *testing.T) {
	e := NewEngine(SampleCourse())
	eps, err := e.Traverse("lnk-show")
	if err != nil || len(eps) != 2 || eps[0] != "ev-btn" || eps[1] != "ev-diagram" {
		t.Errorf("traverse %v err=%v", eps, err)
	}
	if _, err := e.Traverse("ghost"); err == nil {
		t.Error("ghost link traversed")
	}
}

func TestToIMDStructure(t *testing.T) {
	doc, err := ToIMD(SampleCourse())
	if err != nil {
		t.Fatal(err)
	}
	scenes := doc.AllScenes()
	if len(scenes) != 2 || scenes[0].ID != "intro" || scenes[1].ID != "cells" {
		t.Fatalf("scenes %v", scenes)
	}
	cells := scenes[1]
	btn, ok := cells.Object("ev-btn")
	if !ok || btn.Kind != document.ObjButton || btn.Text != "Show cell diagram" {
		t.Errorf("button %+v", btn)
	}
	text, _ := cells.Object("ev-text")
	if text.Kind != document.ObjText || text.Duration != 20*time.Second {
		t.Errorf("text %+v", text)
	}
	diagram, _ := cells.Object("ev-diagram")
	if diagram.Kind != document.ObjImage || diagram.Media != "store/atm/cell-format.jpg" {
		t.Errorf("diagram %+v", diagram)
	}
	if diagram.At.W != 400 || diagram.At.H != 300 {
		t.Errorf("diagram region %+v", diagram.At)
	}
	// The user ilink became a clicked behavior; the finish ilink a
	// cross-scene goto.
	foundClick := false
	for _, b := range cells.Behaviors {
		if b.Conditions[0].Object == "ev-btn" && b.Conditions[0].Event == document.BEvClicked {
			foundClick = true
		}
	}
	if !foundClick {
		t.Error("user ilink not converted to a clicked behavior")
	}
	foundGoto := false
	for _, b := range scenes[0].Behaviors {
		for _, a := range b.Actions {
			if a.Verb == document.BGoto && a.Targets[0] == "cells" {
				foundGoto = true
			}
		}
	}
	if !foundGoto {
		t.Error("finish ilink not converted to a goto behavior")
	}
}

func TestToIMDErrors(t *testing.T) {
	d := SampleCourse()
	d.axes[0].perSecond = 0 // no temporal axis
	if _, err := ToIMD(d); err == nil || !strings.Contains(err.Error(), "temporal axis") {
		t.Errorf("err=%v", err)
	}
	bad := SampleCourse()
	bad.FCSs = nil
	bad.Links = nil
	bad.nameLocs = nil
	if _, err := ToIMD(bad); err == nil {
		t.Error("converted doc without schedules")
	}
}

func TestFullPipelineHyTimeToMHEGPlayback(t *testing.T) {
	// The §2.3 pipeline end to end: HyTime markup → parse → convert →
	// compile to MHEG → play on an engine, with the click interaction.
	parsed, err := Parse(SampleCourse().Markup())
	if err != nil {
		t.Fatal(err)
	}
	imd, err := ToIMD(parsed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := courseware.CompileIMD(imd, "hy")
	if err != nil {
		t.Fatal(err)
	}
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock()
	ran := make(map[string]sim.Time)
	var e *engine.Engine
	e = engine.New(clock, engine.WithRenderer(engine.RendererFunc(func(ev engine.Event) {
		if ev.Kind != engine.EvRan {
			return
		}
		if obj, ok := e.Model(ev.Model); ok {
			if _, seen := ran[obj.Base().Info.Name]; !seen {
				ran[obj.Base().Info.Name] = ev.At
			}
		}
	})))
	if _, err := e.Ingest(data); err != nil {
		t.Fatal(err)
	}
	rt, err := e.NewRT(out.Root, "main")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rt)
	// Click the (converted) button 3s into the cells scene: the finish
	// ilink advanced scenes at 8s, so click at 11s.
	clock.At(sim.Time(11*time.Second), func(sim.Time) {
		btn := out.Objects["cells/ev-btn"]
		rts := e.RTsOf(btn)
		if len(rts) > 0 {
			e.Select(rts[0])
		}
	})
	clock.Run()

	if at, ok := ran["text:ev-text"]; !ok || at != sim.Time(8*time.Second) {
		t.Errorf("cells text ran at %v ok=%v (finish ilink scene advance)", at, ok)
	}
	if at, ok := ran["image:ev-diagram"]; !ok || at != sim.Time(11*time.Second) {
		t.Errorf("diagram ran at %v ok=%v (user ilink click)", at, ok)
	}
}

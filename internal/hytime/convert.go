package hytime

import (
	"fmt"
	"time"

	"mits/internal/document"
)

// ToIMD converts a HyTime document into the interactive multimedia
// document model — the §2.3 pipeline that pairs "the expressive power
// of HyTime and the runtime efficiency of MHEG": author and publish in
// HyTime, convert once, interchange and present as MHEG.
//
// Mapping:
//
//   - each FCS containing events on the document's temporal axis
//     becomes one scene, in document order;
//   - events become scene objects: the entity's notation selects the
//     kind, the temporal extent the placement and duration, and extents
//     on the "x"/"y" axes the layout region;
//   - text entities that source a user-rule ilink become buttons;
//   - ilinks become behaviors: rule "user" → clicked, rule "finish" →
//     finished; targets in another scene become goto actions.
func ToIMD(d *Doc) (*document.IMDoc, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	tAxis, ok := d.temporalAxis()
	if !ok {
		return nil, fmt.Errorf("hytime: document has no temporal axis to schedule scenes on")
	}
	axis, _ := d.axis(tAxis)
	eng := NewEngine(d)

	// Which events source a user link? They render as buttons.
	userSources := make(map[string]bool)
	finishLinks := make(map[string][]string) // source event → target events
	userLinks := make(map[string][]string)
	for _, l := range d.Links {
		eps, err := eng.Traverse(l.ID)
		if err != nil {
			return nil, err
		}
		src := eps[0]
		for _, tgt := range eps[1:] {
			if l.rule == ruleUser {
				userSources[src] = true
				userLinks[src] = append(userLinks[src], tgt)
			} else {
				finishLinks[src] = append(finishLinks[src], tgt)
			}
		}
	}

	// Scene of each event, for cross-scene link targets.
	sceneOf := make(map[string]string)
	for _, f := range d.FCSs {
		for _, ev := range f.events {
			if _, ok := ev.extent(tAxis); ok {
				sceneOf[ev.id] = f.ID
			}
		}
	}

	toDuration := func(units int64) time.Duration {
		return time.Duration(float64(units) / float64(axis.perSecond) * float64(time.Second))
	}

	var scenes []*document.Scene
	for _, f := range d.FCSs {
		s := &document.Scene{ID: f.ID, Title: f.title}
		if s.Title == "" {
			s.Title = f.ID
		}
		hasTimed := false
		for _, ev := range f.events {
			tx, onTime := ev.extent(tAxis)
			if !onTime {
				continue
			}
			hasTimed = true
			ent, _ := d.entity(ev.entity)
			obj := document.SceneObject{ID: ev.id, Channel: "stage"}
			switch {
			case userSources[ev.id]:
				obj.Kind = document.ObjButton
				obj.Text = buttonLabel(ev, ent)
				obj.Channel = "controls"
			case kindOfNotation(ent.notation) == "video":
				obj.Kind = document.ObjVideo
				obj.Media = ent.system
			case kindOfNotation(ent.notation) == "audio":
				obj.Kind = document.ObjAudio
				obj.Media = ent.system
				obj.Channel = "audio"
			case kindOfNotation(ent.notation) == "image":
				obj.Kind = document.ObjImage
				obj.Media = ent.system
			default:
				obj.Kind = document.ObjText
				obj.Text = ent.text
				if obj.Text == "" {
					obj.Text = ent.system
				}
			}
			if obj.Kind.Presentable() {
				obj.Duration = toDuration(tx.dur)
			}
			if xx, ok := ev.extent("x"); ok {
				obj.At.X = int(xx.start)
				obj.At.W = int(xx.dur)
			}
			if yy, ok := ev.extent("y"); ok {
				obj.At.Y = int(yy.start)
				obj.At.H = int(yy.dur)
			}
			s.Objects = append(s.Objects, obj)
			// Buttons live outside the timeline; media places at start.
			if obj.Kind != document.ObjButton {
				s.Timeline = append(s.Timeline, document.Placement{
					Object: ev.id, Kind: document.PlaceAt, Offset: toDuration(tx.start),
				})
			}
		}
		if !hasTimed {
			continue // a pure layout FCS (rendition target), not a scene
		}
		// Behaviors from links whose source is in this scene.
		for _, ev := range f.events {
			addLinkBehaviors(s, ev.id, userLinks[ev.id], document.BEvClicked, sceneOf, f.ID)
			addLinkBehaviors(s, ev.id, finishLinks[ev.id], document.BEvFinished, sceneOf, f.ID)
		}
		scenes = append(scenes, s)
	}
	if len(scenes) == 0 {
		return nil, fmt.Errorf("hytime: no FCS schedules events on the temporal axis %q", tAxis)
	}
	title := d.title
	if title == "" {
		title = d.id
	}
	doc := &document.IMDoc{
		Title:    title,
		Sections: []*document.Section{{Title: title, Scenes: scenes}},
	}
	return doc, doc.Validate()
}

func buttonLabel(ev *Event, ent entity) string {
	if ev.label != "" {
		return ev.label
	}
	if ent.text != "" {
		return ent.text
	}
	return ev.id
}

func addLinkBehaviors(s *document.Scene, src string, targets []string, event document.BEvent, sceneOf map[string]string, sceneID string) {
	if len(targets) == 0 {
		return
	}
	var local, remote []string
	for _, tgt := range targets {
		if sceneOf[tgt] == sceneID {
			local = append(local, tgt)
		} else if other := sceneOf[tgt]; other != "" {
			remote = append(remote, other)
		}
	}
	b := document.Behavior{
		Conditions: []document.BCondition{{Object: src, Event: event}},
	}
	if len(local) > 0 {
		b.Actions = append(b.Actions, document.BAction{Verb: document.BStart, Targets: local})
	}
	if len(remote) > 0 {
		b.Actions = append(b.Actions, document.BAction{Verb: document.BGoto, Targets: dedupe(remote)})
	}
	if len(b.Actions) > 0 {
		s.Behaviors = append(s.Behaviors, b)
	}
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// SampleCourse builds a HyTime authoring of the ATM course's first two
// scenes — the document an author-site tool would write before the §2.3
// pipeline converts it for interchange.
func SampleCourse() *Doc {
	return &Doc{
		id:    "atm-hytime",
		title: "ATM Technology (HyTime authoring)",
		axes: []axis{
			{name: "t", unit: "ms", perSecond: 1000},
			{name: "x", unit: "vu"},
			{name: "y", unit: "vu"},
		},
		entities: []entity{
			{id: "welcome-clip", system: "store/atm/welcome.mpg", notation: "MPEG"},
			{id: "welcome-tune", system: "store/atm/welcome.mid", notation: "MIDI"},
			{id: "cells-text", notation: "text", text: "An ATM cell is 53 bytes: a 5-byte header and a 48-byte payload."},
			{id: "cell-diagram", system: "store/atm/cell-format.jpg", notation: "JPEG"},
			{id: "show-btn", notation: "text", text: "Show cell diagram"},
		},
		FCSs: []*FCS{
			{
				ID: "intro", title: "Welcome", axes: []string{"t", "x", "y"},
				events: []*Event{
					{id: "ev-welcome", entity: "welcome-clip", extents: []extent{
						{axis: "t", start: 0, dur: 8000},
						{axis: "x", start: 0, dur: 352},
						{axis: "y", start: 0, dur: 240},
					}},
					{id: "ev-tune", entity: "welcome-tune", extents: []extent{
						{axis: "t", start: 0, dur: 8000},
					}},
				},
			},
			{
				ID: "cells", title: "ATM Cells", axes: []string{"t", "x", "y"},
				events: []*Event{
					{id: "ev-text", entity: "cells-text", extents: []extent{
						{axis: "t", start: 0, dur: 20000},
						{axis: "x", start: 0, dur: 400},
						{axis: "y", start: 0, dur: 200},
					}},
					{id: "ev-diagram", entity: "cell-diagram", extents: []extent{
						{axis: "t", start: 20000, dur: 10000},
						{axis: "x", start: 0, dur: 400},
						{axis: "y", start: 0, dur: 300},
					}},
					{id: "ev-btn", entity: "show-btn", extents: []extent{
						{axis: "t", start: 0, dur: 20000},
						{axis: "x", start: 420, dur: 120},
						{axis: "y", start: 0, dur: 30},
					}},
				},
			},
		},
		nameLocs: []nameLoc{
			{id: "loc-btn", ref: "ev-btn"},
			{id: "loc-diagram", ref: "ev-diagram"},
			{id: "loc-welcome", ref: "ev-welcome"},
			{id: "loc-text", ref: "ev-text"},
		},
		Links: []ILink{
			// Clicking the button shows the diagram (Fig 4.4b's choice).
			{ID: "lnk-show", endpoints: []string{"loc-btn", "loc-diagram"}, rule: ruleUser},
			// When the welcome clip finishes, move to the cells scene.
			{ID: "lnk-advance", endpoints: []string{"loc-welcome", "loc-text"}, rule: ruleFinish},
		},
		renditions: []rendition{
			// Map generic video units onto a 2× presentation space.
			{id: "rnd-screen", from: "intro", to: "screen", maps: []axisMap{
				{axis: "x", scale: 2, offset: 16},
				{axis: "y", scale: 2, offset: 16},
			}},
		},
	}
}

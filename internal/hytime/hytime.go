// Package hytime implements a working subset of HyTime (ISO/IEC 10744,
// §2.2.1 of the paper): the hypermedia/time-based structuring language
// the paper weighs against MHEG in §2.3 and ultimately uses as the
// authoring-side counterpart ("a potential approach is to use MHEG as
// the output format for hypermedia application taking HyTime as input",
// §2.3 citing [MultiTorg, 95]).
//
// The subset covers the modules of Fig 2.1 that MITS-style courseware
// needs:
//
//   - base module: the HyDoc document element and entity declarations;
//   - measurement module: axes with units and granularity;
//   - scheduling module: finite coordinate spaces (FCS) whose events
//     place entities along axes with (start, duration) extents;
//   - location address module: name-space addressing (nameloc) and
//     coordinate/tree addressing (treeloc), §2.2.1.3;
//   - hyperlinks module: independent links (ilink) over location
//     endpoints;
//   - rendition module: axis mappings from a generic FCS to a
//     presentation FCS.
//
// Documents are SGML-flavoured markup with architectural-form
// attributes (`hytime="event"` etc.), parsed with internal/markup. The
// converter in convert.go maps a HyTime document onto the interactive
// multimedia document model, from which the courseware compiler emits
// MHEG — the full authoring pipeline of §2.3.
package hytime

import (
	"fmt"
	"strings"

	"mits/internal/markup"
)

// axis is one dimension of the measurement module: a named axis
// measured in units with a granularity (units per second for temporal
// axes; 0 marks a spatial/virtual axis).
type axis struct {
	name      string
	unit      string
	perSecond int // >0: temporal axis with this many units per second
}

// temporal reports whether the axis measures time.
func (a axis) temporal() bool { return a.perSecond > 0 }

// entity is a declared external content object (the SGML entity that
// HyTime addressing ultimately grounds in).
type entity struct {
	id       string
	system   string // system identifier: the content reference
	notation string // data notation: MPEG, JPEG, WAV, text…
	text     string // inline text entities
}

// extent places an event along one axis.
type extent struct {
	axis  string
	start int64
	dur   int64
}

// Event schedules one entity in a finite coordinate space.
type Event struct {
	id      string
	entity  string // entity id presented by this event
	label   string
	extents []extent
}

// extent returns the event's extent on the named axis.
func (e *Event) extent(axis string) (extent, bool) {
	for _, x := range e.extents {
		if x.axis == axis {
			return x, true
		}
	}
	return extent{}, false
}

// FCS is a finite coordinate space of the scheduling module: a set of
// axes with events placed on them.
type FCS struct {
	ID     string
	title  string
	axes   []string
	events []*Event
}

// event finds an event by id.
func (f *FCS) event(id string) (*Event, bool) {
	for _, e := range f.events {
		if e.id == id {
			return e, true
		}
	}
	return nil, false
}

// nameLoc is a name-space address: "the most robust form of address in
// that it can survive changes in the object being addressed"
// (§2.2.1.3).
type nameLoc struct {
	id  string
	ref string // id of the addressed element (event or entity)
}

// treeLoc is a coordinate address into the document tree: "the first
// child of the second child of the root" (§2.2.1.3). Path components
// are 1-based child indexes from the document element.
type treeLoc struct {
	id   string
	path []int
}

// linkRule describes when an ilink is traversed.
type linkRule string

// Link traversal rules.
const (
	ruleUser   linkRule = "user"   // traversed on user activation
	ruleFinish linkRule = "finish" // traversed when the source event ends
)

// ILink is an independent link between located endpoints.
type ILink struct {
	ID        string
	endpoints []string // location ids; first is the source
	rule      linkRule
}

// axisMap is one axis mapping of a rendition.
type axisMap struct {
	axis   string
	scale  float64
	offset int64
}

// rendition maps events of one FCS onto another (generic layout →
// presentation layout, §2.2.1.2's rendition module).
type rendition struct {
	id   string
	from string
	to   string
	maps []axisMap
}

// Doc is a parsed HyTime document.
type Doc struct {
	id         string
	title      string
	axes       []axis
	entities   []entity
	FCSs       []*FCS
	nameLocs   []nameLoc
	treeLocs   []treeLoc
	Links      []ILink
	renditions []rendition

	root *markup.Element // retained for tree-location resolution
}

// axis finds an axis by name.
func (d *Doc) axis(name string) (axis, bool) {
	for _, a := range d.axes {
		if a.name == name {
			return a, true
		}
	}
	return axis{}, false
}

// entity finds an entity by id.
func (d *Doc) entity(id string) (entity, bool) {
	for _, e := range d.entities {
		if e.id == id {
			return e, true
		}
	}
	return entity{}, false
}

// fcs finds a coordinate space by id.
func (d *Doc) fcs(id string) (*FCS, bool) {
	for _, f := range d.FCSs {
		if f.ID == id {
			return f, true
		}
	}
	return nil, false
}

// temporalAxis returns the document's (first) temporal axis name.
func (d *Doc) temporalAxis() (string, bool) {
	for _, a := range d.axes {
		if a.temporal() {
			return a.name, true
		}
	}
	return "", false
}

// validate checks referential integrity across the modules.
func (d *Doc) validate() error {
	if d.id == "" {
		return fmt.Errorf("hytime: document has no id")
	}
	axes := make(map[string]axis, len(d.axes))
	for _, a := range d.axes {
		if a.name == "" {
			return fmt.Errorf("hytime: axis with empty name")
		}
		if _, dup := axes[a.name]; dup {
			return fmt.Errorf("hytime: duplicate axis %q", a.name)
		}
		axes[a.name] = a
	}
	ids := make(map[string]string) // id → element kind
	declare := func(id, kind string) error {
		if id == "" {
			return fmt.Errorf("hytime: %s with empty id", kind)
		}
		if prev, dup := ids[id]; dup {
			return fmt.Errorf("hytime: id %q declared as both %s and %s", id, prev, kind)
		}
		ids[id] = kind
		return nil
	}
	for _, e := range d.entities {
		if err := declare(e.id, "entity"); err != nil {
			return err
		}
		if e.system == "" && e.text == "" {
			return fmt.Errorf("hytime: entity %q has neither system identifier nor text", e.id)
		}
	}
	for _, f := range d.FCSs {
		if err := declare(f.ID, "fcs"); err != nil {
			return err
		}
		for _, ax := range f.axes {
			if _, ok := axes[ax]; !ok {
				return fmt.Errorf("hytime: fcs %q uses undeclared axis %q", f.ID, ax)
			}
		}
		fcsAxes := make(map[string]bool, len(f.axes))
		for _, ax := range f.axes {
			fcsAxes[ax] = true
		}
		for _, ev := range f.events {
			if err := declare(ev.id, "event"); err != nil {
				return err
			}
			if _, ok := d.entity(ev.entity); !ok {
				return fmt.Errorf("hytime: event %q schedules undeclared entity %q", ev.id, ev.entity)
			}
			if len(ev.extents) == 0 {
				return fmt.Errorf("hytime: event %q has no extents", ev.id)
			}
			for _, x := range ev.extents {
				if !fcsAxes[x.axis] {
					return fmt.Errorf("hytime: event %q extent on axis %q outside fcs %q", ev.id, x.axis, f.ID)
				}
				if x.start < 0 || x.dur < 0 {
					return fmt.Errorf("hytime: event %q has negative extent on %q", ev.id, x.axis)
				}
			}
		}
	}
	for _, n := range d.nameLocs {
		if err := declare(n.id, "nameloc"); err != nil {
			return err
		}
		if _, ok := ids[n.ref]; !ok {
			return fmt.Errorf("hytime: nameloc %q addresses unknown id %q", n.id, n.ref)
		}
	}
	for _, tl := range d.treeLocs {
		if err := declare(tl.id, "treeloc"); err != nil {
			return err
		}
		if len(tl.path) == 0 {
			return fmt.Errorf("hytime: treeloc %q has empty path", tl.id)
		}
		for _, step := range tl.path {
			if step < 1 {
				return fmt.Errorf("hytime: treeloc %q has non-positive step", tl.id)
			}
		}
	}
	locKinds := map[string]bool{"nameloc": true, "treeloc": true}
	for _, l := range d.Links {
		if err := declare(l.ID, "ilink"); err != nil {
			return err
		}
		if len(l.endpoints) < 2 {
			return fmt.Errorf("hytime: ilink %q needs ≥2 endpoints", l.ID)
		}
		for _, ep := range l.endpoints {
			kind, ok := ids[ep]
			if !ok {
				return fmt.Errorf("hytime: ilink %q endpoint %q unknown", l.ID, ep)
			}
			if !locKinds[kind] && kind != "event" {
				return fmt.Errorf("hytime: ilink %q endpoint %q is a %s, want a location or event", l.ID, ep, kind)
			}
		}
		switch l.rule {
		case ruleUser, ruleFinish:
		default:
			return fmt.Errorf("hytime: ilink %q has unknown traversal rule %q", l.ID, l.rule)
		}
	}
	for _, r := range d.renditions {
		if err := declare(r.id, "rendition"); err != nil {
			return err
		}
		if _, ok := d.fcs(r.from); !ok {
			return fmt.Errorf("hytime: rendition %q maps from unknown fcs %q", r.id, r.from)
		}
		for _, m := range r.maps {
			if _, ok := axes[m.axis]; !ok {
				return fmt.Errorf("hytime: rendition %q maps undeclared axis %q", r.id, m.axis)
			}
			if m.scale == 0 {
				return fmt.Errorf("hytime: rendition %q has zero scale on %q", r.id, m.axis)
			}
		}
	}
	return nil
}

// kindOfNotation groups notations for the converter.
func kindOfNotation(n string) string {
	switch strings.ToUpper(n) {
	case "MPEG", "AVI":
		return "video"
	case "WAV", "MIDI":
		return "audio"
	case "JPEG":
		return "image"
	default:
		return "text"
	}
}

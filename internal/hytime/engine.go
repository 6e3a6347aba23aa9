package hytime

import (
	"fmt"
	"sort"

	"mits/internal/markup"
)

// Engine is the HyTime engine of Fig 2.3's processing model: after the
// parser hands it the document, "the engine assumes responsibility for
// determining where things are on FCS schedules, for resolving document
// location elements to the data they indicate". Unlike MHEG, whose
// links arrive fully resolved, every HyTime query pays a resolution
// step — the E21 experiment counts them.
type Engine struct {
	doc *Doc

	// Resolutions counts address resolutions performed, the runtime
	// cost §2.3.2 attributes to HyTime presentation.
	Resolutions int
}

// NewEngine wraps a validated document.
func NewEngine(d *Doc) *Engine { return &Engine{doc: d} }

// resolveLocation resolves a location id (nameloc or treeloc) to the id
// of the element it addresses.
func (e *Engine) resolveLocation(locID string) (string, error) {
	e.Resolutions++
	for _, n := range e.doc.nameLocs {
		if n.id == locID {
			return n.ref, nil
		}
	}
	for _, tl := range e.doc.treeLocs {
		if tl.id == locID {
			el, err := e.resolveTree(tl.path)
			if err != nil {
				return "", err
			}
			if id := el.Attr("id"); id != "" {
				return id, nil
			}
			return "", fmt.Errorf("hytime: treeloc %q addresses an element without id", locID)
		}
	}
	// An event or entity id is its own address.
	if _, ok := e.findEvent(locID); ok {
		return locID, nil
	}
	if _, ok := e.doc.entity(locID); ok {
		return locID, nil
	}
	return "", fmt.Errorf("hytime: unknown location %q", locID)
}

func (e *Engine) resolveTree(path []int) (*markup.Element, error) {
	el := e.doc.root
	if el == nil {
		return nil, fmt.Errorf("hytime: no document tree retained")
	}
	for _, step := range path {
		if step < 1 || step > len(el.Kids) {
			return nil, fmt.Errorf("hytime: tree path step %d out of range (element has %d children)", step, len(el.Kids))
		}
		el = el.Kids[step-1]
	}
	return el, nil
}

func (e *Engine) findEvent(id string) (*Event, bool) {
	for _, f := range e.doc.FCSs {
		if ev, ok := f.event(id); ok {
			return ev, true
		}
	}
	return nil, false
}

// EventsAt reports the events of an FCS whose extent on the axis covers
// position t, in start order — "determining where things are on FCS
// schedules".
func (e *Engine) EventsAt(fcsID, axis string, t int64) ([]*Event, error) {
	e.Resolutions++
	f, ok := e.doc.fcs(fcsID)
	if !ok {
		return nil, fmt.Errorf("hytime: unknown fcs %q", fcsID)
	}
	var out []*Event
	for _, ev := range f.events {
		x, ok := ev.extent(axis)
		if !ok {
			continue
		}
		if t >= x.start && t < x.start+x.dur {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		xi, _ := out[i].extent(axis)
		xj, _ := out[j].extent(axis)
		if xi.start != xj.start {
			return xi.start < xj.start
		}
		return out[i].id < out[j].id
	})
	return out, nil
}

// Span reports the FCS's total extent on the axis.
func (e *Engine) Span(fcsID, axis string) (int64, error) {
	e.Resolutions++
	f, ok := e.doc.fcs(fcsID)
	if !ok {
		return 0, fmt.Errorf("hytime: unknown fcs %q", fcsID)
	}
	var span int64
	for _, ev := range f.events {
		if x, ok := ev.extent(axis); ok {
			if end := x.start + x.dur; end > span {
				span = end
			}
		}
	}
	return span, nil
}

// Traverse resolves a link's endpoints to element ids (source first) —
// the hyperlink traversal of §2.2.1.3, which in HyTime requires
// resolving each endpoint's location chain at traversal time.
func (e *Engine) Traverse(linkID string) ([]string, error) {
	for _, l := range e.doc.Links {
		if l.ID != linkID {
			continue
		}
		out := make([]string, 0, len(l.endpoints))
		for _, ep := range l.endpoints {
			id, err := e.resolveLocation(ep)
			if err != nil {
				return nil, fmt.Errorf("hytime: link %q: %w", linkID, err)
			}
			out = append(out, id)
		}
		return out, nil
	}
	return nil, fmt.Errorf("hytime: unknown link %q", linkID)
}

package sched

import (
	"fmt"
	"sort"
	"time"

	"mits/internal/mheg"
)

// Timeline is the time-line structure of a scene (§4.3.3): every media
// object is placed either at an absolute offset, relative to another
// object's start, or after another object's end. Durations may be
// unknown (interactive or open-ended objects); relations to them
// compile into conditional links.
type Timeline struct {
	entries map[mheg.ID]*entry
	order   []mheg.ID
}

type relKind int

const (
	relAbsolute relKind = iota
	relWithStart
	relAfterEnd
)

type entry struct {
	id       mheg.ID
	duration time.Duration // 0 = unknown/untimed
	rel      relKind
	other    mheg.ID
	offset   time.Duration

	start    time.Duration
	resolved bool
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{entries: make(map[mheg.ID]*entry)}
}

func (t *Timeline) add(e *entry) error {
	if e.id.Zero() {
		return fmt.Errorf("sched: timeline entry with zero id")
	}
	if _, dup := t.entries[e.id]; dup {
		return fmt.Errorf("sched: object %v already on the timeline", e.id)
	}
	if e.offset < 0 {
		return fmt.Errorf("sched: object %v has negative offset %v", e.id, e.offset)
	}
	t.entries[e.id] = e
	t.order = append(t.order, e.id)
	return nil
}

// At places an object at an absolute offset from scene start.
func (t *Timeline) At(id mheg.ID, at, duration time.Duration) error {
	return t.add(&entry{id: id, duration: duration, rel: relAbsolute, offset: at})
}

// With places an object offset after another object's *start*
// (the "meet"/co-start family of relations).
func (t *Timeline) With(id, other mheg.ID, offset, duration time.Duration) error {
	return t.add(&entry{id: id, duration: duration, rel: relWithStart, other: other, offset: offset})
}

// After places an object offset after another object's *end*. When the
// predecessor's duration is unknown the start is event-driven.
func (t *Timeline) After(id, other mheg.ID, offset, duration time.Duration) error {
	return t.add(&entry{id: id, duration: duration, rel: relAfterEnd, other: other, offset: offset})
}

// Resolve computes absolute start offsets where durations permit. It
// returns an error on references to unplaced objects or cyclic
// relations. Entries downstream of an unknown duration stay unresolved
// (they will be compiled as links).
func (t *Timeline) Resolve() error {
	for _, e := range t.entries {
		e.resolved = false
	}
	// Fixpoint propagation; n passes suffice for n entries.
	for pass := 0; pass <= len(t.order); pass++ {
		progress := false
		for _, id := range t.order {
			e := t.entries[id]
			if e.resolved {
				continue
			}
			switch e.rel {
			case relAbsolute:
				e.start = e.offset
				e.resolved = true
				progress = true
			case relWithStart, relAfterEnd:
				o, ok := t.entries[e.other]
				if !ok {
					return fmt.Errorf("sched: %v is relative to unplaced object %v", e.id, e.other)
				}
				if !o.resolved {
					continue
				}
				if e.rel == relWithStart {
					e.start = o.start + e.offset
					e.resolved = true
					progress = true
				} else if o.duration > 0 {
					e.start = o.start + o.duration + e.offset
					e.resolved = true
					progress = true
				}
				// relAfterEnd with unknown duration: stays unresolved,
				// compiled as an OnFinished link.
			}
		}
		if !progress {
			break
		}
	}
	// Anything unresolved must trace back to an unknown duration, not a
	// cycle. Detect cycles: follow the relation chain.
	for _, id := range t.order {
		if err := t.checkChain(id, make(map[mheg.ID]bool)); err != nil {
			return err
		}
	}
	return nil
}

func (t *Timeline) checkChain(id mheg.ID, seen map[mheg.ID]bool) error {
	if seen[id] {
		return fmt.Errorf("sched: cyclic temporal relation through %v", id)
	}
	seen[id] = true
	e := t.entries[id]
	if e == nil || e.rel == relAbsolute {
		return nil
	}
	return t.checkChain(e.other, seen)
}

// Start reports the resolved start offset of an object; ok is false for
// event-driven entries.
func (t *Timeline) Start(id mheg.ID) (time.Duration, bool) {
	e, ok := t.entries[id]
	if !ok || !e.resolved {
		return 0, false
	}
	return e.start, true
}

// Span reports the scene's total resolved duration (end of the last
// resolved timed object).
func (t *Timeline) Span() time.Duration {
	var span time.Duration
	for _, e := range t.entries {
		if e.resolved {
			if end := e.start + e.duration; end > span {
				span = end
			}
		}
	}
	return span
}

// Compile turns the timeline into MHEG objects: one action carrying the
// resolved offsets and one OnFinished link per event-driven entry.
// Object numbers are allocated from base upward in the given app
// namespace. The objects already exist as run-time instances
// (components socketed into a composite), so the emitted actions only
// run them.
func (t *Timeline) Compile(app string, base uint32) (*mheg.Action, []*mheg.Link, error) {
	if err := t.Resolve(); err != nil {
		return nil, nil, err
	}
	type placed struct {
		id    mheg.ID
		start time.Duration
	}
	var fixed []placed
	var links []*mheg.Link
	num := base + 1
	for _, id := range t.order {
		e := t.entries[id]
		if e.resolved {
			fixed = append(fixed, placed{id: e.id, start: e.start})
			continue
		}
		links = append(links, mheg.OnFinished(mheg.ID{App: app, Num: num}, e.other, mheg.ActAfter(e.offset, mheg.OpRun, e.id)))
		num++
	}
	sort.SliceStable(fixed, func(i, j int) bool { return fixed[i].start < fixed[j].start })
	action := mheg.NewAction(mheg.ID{App: app, Num: base})
	for _, p := range fixed {
		action.Items = append(action.Items, mheg.ActAfter(p.start, mheg.OpRun, p.id))
	}
	if len(action.Items) == 0 {
		return nil, nil, fmt.Errorf("sched: timeline has no resolvable entries")
	}
	return action, links, nil
}

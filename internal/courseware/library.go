// Package courseware implements the MITS courseware layer of chapter 4:
// the interactive multimedia courseware class library of Fig 4.6
// (Interactive, Output and Hyperobject types built on the basic MHEG
// library), authoring templates (§4.5.2), teaching-architecture
// frameworks (§4.2, §4.5.1) and the compiler that maps the document
// layer onto the MHEG object layer (Fig 4.2).
package courseware

import (
	"fmt"

	"mits/internal/media"
	"mits/internal/mheg"
)

// Group is a set of MHEG objects realizing one courseware-library
// object, rooted at Root. The library "acts as a bridge between the
// courseware authors and the MHEG coding format" (§4.4.2): an author
// asks for a button; the group carries the content object, the
// composite and the links that implement it.
type Group struct {
	Root    mheg.ID
	Objects []mheg.Object
}

// Container packs the group for interchange.
func (g Group) Container(id mheg.ID) *mheg.Container {
	return mheg.NewContainer(id, g.Objects...)
}

// IDAllocator hands out sequential MHEG identifiers in one application
// namespace.
type IDAllocator struct {
	App  string
	next uint32
}

// NewIDAllocator starts allocation at the given number.
func NewIDAllocator(app string, start uint32) *IDAllocator {
	return &IDAllocator{App: app, next: start}
}

// Next returns a fresh ID.
func (a *IDAllocator) Next() mheg.ID {
	a.next++
	return mheg.ID{App: a.App, Num: a.next - 1}
}

// Reserve allocates a contiguous block of n numbers and returns the
// first, for sub-compilers that number their own objects.
func (a *IDAllocator) Reserve(n uint32) uint32 {
	start := a.next
	a.next += n
	return start
}

// ---- Interactive objects (Fig 4.6) ----

// Button builds an interactive object: a labelled selectable area whose
// click applies the given effect.
func Button(ids *IDAllocator, label string, effect ...mheg.ElementaryAction) Group {
	content := mheg.NewTextContent(ids.Next(), label)
	content.Info.Name = "button:" + label
	link := mheg.OnSelect(ids.Next(), content.ID, effect...)
	comp := mheg.NewComposite(ids.Next(), content.ID)
	comp.Links = []mheg.ID{link.ID}
	comp.Info.Name = "interactive:button"
	return Group{Root: comp.ID, Objects: []mheg.Object{content, link, comp}}
}

// MenuChoice pairs a menu option label with its effect.
type MenuChoice struct {
	Label  string
	Effect []mheg.ElementaryAction
}

// Menu builds an interactive object offering several selections; each
// fires when the menu's selection state becomes its label.
func Menu(ids *IDAllocator, name string, choices ...MenuChoice) (Group, error) {
	if len(choices) == 0 {
		return Group{}, fmt.Errorf("courseware: menu %q has no choices", name)
	}
	content := mheg.NewTextContent(ids.Next(), name)
	content.Info.Name = "menu:" + name
	objs := []mheg.Object{content}
	var linkIDs []mheg.ID
	for _, c := range choices {
		l := mheg.NewLink(ids.Next(), mheg.Condition{
			Source: content.ID,
			Attr:   mheg.AttrSelectionState,
			Op:     mheg.OpEqual,
			Value:  mheg.StringValue(c.Label),
		}, c.Effect...)
		objs = append(objs, l)
		linkIDs = append(linkIDs, l.ID)
	}
	comp := mheg.NewComposite(ids.Next(), content.ID)
	comp.Links = linkIDs
	comp.Info.Name = "interactive:menu"
	objs = append(objs, comp)
	return Group{Root: comp.ID, Objects: objs}, nil
}

// EntryField builds an interactive object that stores typed user input
// into a generic value object and fires the effect on change.
func EntryField(ids *IDAllocator, name string, effect ...mheg.ElementaryAction) Group {
	field := mheg.NewTextContent(ids.Next(), "")
	field.Info.Name = "entry:" + name
	store := mheg.NewGenericValue(ids.Next(), mheg.StringValue(""))
	store.Info.Name = "entry-value:" + name
	items := append([]mheg.ElementaryAction{}, effect...)
	if len(items) == 0 {
		// Default effect: acknowledge the input visually.
		items = append(items, mheg.Act(mheg.OpSetHighlight, field.ID, mheg.BoolValue(true)))
	}
	l := mheg.NewLink(ids.Next(), mheg.Condition{
		Source: field.ID,
		Attr:   mheg.AttrUserInput,
		Op:     mheg.OpNotEqual,
		Value:  mheg.StringValue(""),
	}, items...)
	comp := mheg.NewComposite(ids.Next(), field.ID, store.ID)
	comp.Links = []mheg.ID{l.ID}
	comp.Info.Name = "interactive:entry"
	return Group{Root: comp.ID, Objects: []mheg.Object{field, store, l, comp}}
}

// ---- Output objects (Fig 4.6) ----

// OutputText builds an output object presenting text.
func OutputText(ids *IDAllocator, text string) Group {
	c := mheg.NewTextContent(ids.Next(), text)
	c.Info.Name = "output:text"
	return Group{Root: c.ID, Objects: []mheg.Object{c}}
}

// OutputMedia builds an output object presenting a referenced media
// object with the given presentation parameters.
func OutputMedia(ids *IDAllocator, coding media.Coding, ref string, size mheg.Size, dur mheg.Duration) Group {
	c := mheg.NewContent(ids.Next(), coding, ref)
	c.OrigSize = size
	c.OrigDuration = dur
	c.Info.Name = "output:" + string(coding)
	return Group{Root: c.ID, Objects: []mheg.Object{c}}
}

// ---- Hyperobjects (Fig 4.6) ----

// Hyperobject composes input and output objects "plus explicit links
// between them": selecting the input presents the output. The classic
// §2.2.2.3 example — a push-button that plays an audio segment.
func Hyperobject(ids *IDAllocator, inputLabel string, output Group) Group {
	input := mheg.NewTextContent(ids.Next(), inputLabel)
	input.Info.Name = "hyper-input:" + inputLabel
	link := mheg.OnSelect(ids.Next(), input.ID,
		mheg.Act(mheg.OpNew, output.Root),
		mheg.Act(mheg.OpRun, output.Root))
	comp := mheg.NewComposite(ids.Next(), input.ID)
	comp.Links = []mheg.ID{link.ID}
	comp.Info.Name = "hyperobject"
	objs := append([]mheg.Object{input, link}, output.Objects...)
	objs = append(objs, comp)
	return Group{Root: comp.ID, Objects: objs}
}

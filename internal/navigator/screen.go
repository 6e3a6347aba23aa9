// Package navigator implements the courseware navigator of chapter 5:
// the presentation-site application that logs students into the MIRL
// TeleSchool, retrieves courseware from the database, plays it back
// through an MHEG engine, and offers the administration, library,
// bulletin-board and help facilities of §5.2.1.
//
// The Windows 95 GUI is replaced by a virtual screen: a headless
// display list fed by the engine's render events. Every courseware
// semantic — scenario, links, interaction — executes exactly as it
// would behind a real GUI; only pixels are absent.
package navigator

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"mits/internal/media"
	"mits/internal/mheg"
	"mits/internal/mheg/engine"
)

// ItemKind classifies what a screen item renders as.
type ItemKind string

// Screen item kinds.
const (
	KindText   ItemKind = "text"
	KindButton ItemKind = "button"
	KindWord   ItemKind = "word" // a hot word: clickable link source
	KindVideo  ItemKind = "video"
	KindAudio  ItemKind = "audio"
	KindImage  ItemKind = "image"
	KindOther  ItemKind = "object"
)

// Clickable reports whether the item reacts to Click.
func (k ItemKind) Clickable() bool { return k == KindButton || k == KindWord }

// Item is one object on the virtual screen.
type Item struct {
	RT      engine.RTID
	Model   mheg.ID
	Kind    ItemKind
	Label   string // button label or text excerpt
	Channel string
	Running bool
	Visible bool
	Pos     mheg.Point
	Size    mheg.Size
}

// Screen is the virtual display: it implements engine.Renderer and
// maintains the set of presently existing run-time objects, per
// channel (the logical presentation spaces of §4.3.3).
type Screen struct {
	lookup func(mheg.ID) (mheg.Object, bool)
	// items is indexed by RTID, which the engine hands out densely and
	// never reuses; a slot whose RT is 0 holds no object.
	items []Item
}

// NewScreen builds a screen resolving model metadata through lookup
// (normally engine.Model).
func NewScreen(lookup func(mheg.ID) (mheg.Object, bool)) *Screen {
	return &Screen{lookup: lookup}
}

// reset empties the screen for a fresh engine whose models lookup
// resolves, keeping the item storage for its objects.
func (s *Screen) reset(lookup func(mheg.ID) (mheg.Object, bool)) {
	clear(s.items)
	s.items, s.lookup = s.items[:0], lookup
}

// item is the object with run-time id rt on screen, or nil.
func (s *Screen) item(rt engine.RTID) *Item {
	if rt <= 0 || int(rt) >= len(s.items) || s.items[rt].RT == 0 {
		return nil
	}
	return &s.items[rt]
}

// RenderEvent implements engine.Renderer.
func (s *Screen) RenderEvent(ev engine.Event) {
	switch ev.Kind {
	case engine.EvCreated:
		if ev.RT <= 0 {
			return
		}
		for int(ev.RT) >= len(s.items) {
			s.items = append(s.items, Item{})
		}
		s.describe(&s.items[ev.RT], ev)
	case engine.EvDeleted:
		if it := s.item(ev.RT); it != nil {
			*it = Item{}
		}
	default:
		it := s.item(ev.RT)
		if it == nil {
			return
		}
		switch ev.Kind {
		case engine.EvRan, engine.EvResumed:
			it.Running = true
		case engine.EvStopped, engine.EvFinished, engine.EvPaused:
			it.Running = false
		case engine.EvVisibility:
			it.Visible = ev.Detail == "true"
		case engine.EvMoved:
			fmt.Sscanf(ev.Detail, "(%d,%d)", &it.Pos.X, &it.Pos.Y)
		case engine.EvResized:
			fmt.Sscanf(ev.Detail, "%dx%d", &it.Size.W, &it.Size.H)
		}
	}
}

// describe fills it for the object an EvCreated event announces.
func (s *Screen) describe(it *Item, ev engine.Event) {
	*it = Item{RT: ev.RT, Model: ev.Model, Channel: ev.Channel, Visible: true, Kind: KindOther}
	obj, ok := s.lookup(ev.Model)
	if !ok {
		return
	}
	content, isContent := obj.(*mheg.Content)
	if !isContent {
		if m, isMux := obj.(*mheg.MultiplexedContent); isMux {
			content = &m.Content
		} else {
			it.Label = obj.Base().Info.Name
			return
		}
	}
	it.Size = content.OrigSize
	name := content.Info.Name
	switch {
	case strings.HasPrefix(name, "button:"):
		it.Kind = KindButton
		it.Label = strings.TrimPrefix(name, "button:")
	case strings.HasPrefix(name, "word:"):
		it.Kind = KindWord
		it.Label = strings.TrimPrefix(name, "word:")
	case content.Coding == media.CodingASCII || content.Coding == media.CodingHTML:
		it.Kind = KindText
		it.Label = name
		if !content.Referenced() {
			// One byte past the excerpt tells excerpt whether to cut.
			if txt, err := media.TextPrefix(content.Coding, content.Inline, excerptLen+1); err == nil {
				it.Label = excerpt(txt, excerptLen)
			}
		}
	case media.ClassOf(content.Coding) == media.ClassVideo:
		it.Kind = KindVideo
		it.Label = name
	case media.ClassOf(content.Coding) == media.ClassAudio:
		it.Kind = KindAudio
		it.Label = name
	case media.ClassOf(content.Coding) == media.ClassImage:
		it.Kind = KindImage
		it.Label = name
	}
}

// excerptLen bounds a text item's label, in bytes.
const excerptLen = 60

// excerpt is s on one line, cut to at most n bytes at a rune boundary
// and marked "…" when cut.
func excerpt(s string, n int) string {
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}

// Display lists the presented items of a channel (all channels when
// channel is empty): objects that are visible and running — created
// run-time objects that have not been run are prepared, not presented
// (§2.2.2.2). Structural composites never display. Buttons sort first,
// then model id, then run-time id, which gives the deterministic
// "screen" the tests assert on.
func (s *Screen) Display(channel string) []Item {
	var out []Item
	for _, it := range s.items {
		if it.RT == 0 || !it.Visible || !it.Running || it.Kind == KindOther {
			continue
		}
		if channel != "" && it.Channel != channel {
			continue
		}
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind.Clickable() != out[j].Kind.Clickable() {
			return out[i].Kind.Clickable()
		}
		if out[i].Model.App != out[j].Model.App {
			return out[i].Model.App < out[j].Model.App
		}
		return byModelNum(out[i], out[j])
	})
	return out
}

// byModelNum orders items by model number, then run-time id: two
// instances of one model list in the order they were created.
func byModelNum(a, b Item) bool {
	if a.Model.Num != b.Model.Num {
		return a.Model.Num < b.Model.Num
	}
	return a.RT < b.RT
}

// Buttons lists the clickable items currently on screen (buttons run
// while their scene is active).
func (s *Screen) Buttons() []Item {
	var out []Item
	for _, it := range s.items {
		if it.RT != 0 && it.Kind.Clickable() && it.Visible && it.Running {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return byModelNum(out[i], out[j]) })
	return out
}

// Find locates the first visible item with the given label, the one
// created first when several carry it.
func (s *Screen) Find(label string) (Item, bool) {
	for _, it := range s.items {
		if it.RT != 0 && it.Visible && it.Running && it.Label == label {
			return it, true
		}
	}
	return Item{}, false
}

// Playing lists the currently running continuous-media items.
func (s *Screen) Playing() []Item {
	var out []Item
	for _, it := range s.items {
		if it.RT != 0 && it.Running && (it.Kind == KindVideo || it.Kind == KindAudio) {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return byModelNum(out[i], out[j]) })
	return out
}

// String renders the screen for debugging and the CLI navigator.
func (s *Screen) String() string {
	var b strings.Builder
	for _, it := range s.Display("") {
		state := " "
		if it.Running {
			state = "▶"
		}
		fmt.Fprintf(&b, "[%s%s] %-6s %s\n", state, it.Channel, it.Kind, it.Label)
	}
	return b.String()
}

package navigator

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"mits/internal/media"
	"mits/internal/mheg"
	"mits/internal/mheg/engine"
	"mits/internal/sim"
)

func mid(n uint32) mheg.ID { return mheg.ID{App: "screen", Num: n} }

// textLabel is the label a screen gives an inline text object holding
// body.
func textLabel(t *testing.T, body string) string {
	t.Helper()
	text := mheg.NewTextContent(mid(1), body)
	scr := NewScreen(func(id mheg.ID) (mheg.Object, bool) { return text, id == text.ID })
	scr.RenderEvent(engine.Event{Kind: engine.EvCreated, RT: 1, Model: text.ID})
	it := scr.item(1)
	if it == nil || it.Kind != KindText {
		t.Fatalf("text object rendered as %+v", it)
	}
	return it.Label
}

// TestExcerptCutsAtRuneBoundary: a rune that straddles the 60-byte cut
// is dropped whole, so the label stays valid UTF-8.
func TestExcerptCutsAtRuneBoundary(t *testing.T) {
	prefix := strings.Repeat("a", 59)
	got := textLabel(t, prefix+"é and more")
	if want := prefix + "…"; got != want {
		t.Errorf("label %q, want %q", got, want)
	}
	if !utf8.ValidString(got) {
		t.Errorf("label %q is not valid UTF-8", got)
	}
}

// TestExcerptASCIILabelsUnchanged: ASCII bodies below, at and past the
// cut get the labels the whole-body excerpt gave, byte for byte.
func TestExcerptASCIILabelsUnchanged(t *testing.T) {
	wholeBody := func(s string) string { // the excerpt before the bounded read
		s = strings.ReplaceAll(s, "\n", " ")
		if len(s) <= 60 {
			return s
		}
		return s[:60] + "…"
	}
	for _, n := range []int{59, 60, 61, 200} {
		body := strings.Repeat("abcdefghi\n", 20)[:n]
		if got, want := textLabel(t, body), wholeBody(body); got != want {
			t.Errorf("%d-byte body: label %q, want %q", n, got, want)
		}
	}
}

// TestScreenOrdersInstancesOfOneModel: a composite that sockets a
// button and an audio clip twice each (through two scenes, since a
// composite may list a component once) lists the two instances of each
// model by run-time id, in Display, Buttons and Playing alike, on every
// render.
func TestScreenOrdersInstancesOfOneModel(t *testing.T) {
	var scr *Screen
	e := engine.New(sim.NewClock(), engine.WithRenderer(engine.RendererFunc(func(ev engine.Event) { scr.RenderEvent(ev) })))
	scr = NewScreen(e.Model)
	button := mheg.NewTextContent(mid(1), "go")
	button.Info.Name = "button:Go"
	audio, err := mheg.NewAudioContent(mid(2), media.CodingWAV, "store/a.wav", time.Second, 70)
	if err != nil {
		t.Fatal(err)
	}
	scenes := []mheg.Object{mheg.NewComposite(mid(10), mid(1), mid(2)), mheg.NewComposite(mid(11), mid(1), mid(2))}
	for _, m := range append(scenes, button, audio, mheg.NewComposite(mid(20), mid(10), mid(11))) {
		if err := e.AddModel(m); err != nil {
			t.Fatal(err)
		}
	}
	root, err := e.NewRT(mid(20), "main")
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := e.RT(root)
	for _, scene := range rt.Sockets {
		srt, _ := e.RT(scene.RT)
		for _, leaf := range srt.Sockets {
			e.Run(leaf.RT)
		}
	}

	// render lists the run-time ids of Display, Buttons and Playing.
	render := func() (out [3][]engine.RTID) {
		for i, list := range [3][]Item{scr.Display(""), scr.Buttons(), scr.Playing()} {
			for _, it := range list {
				out[i] = append(out[i], it.RT)
			}
		}
		return out
	}
	first := render()
	// The buttons, then the clips; each model's instances in creation order.
	if want := [3][]engine.RTID{{3, 6, 4, 7}, {3, 6}, {4, 7}}; !reflect.DeepEqual(first, want) {
		t.Errorf("Display, Buttons, Playing list rts %v, want %v", first, want)
	}
	for i := 0; i < 100; i++ {
		if got := render(); !reflect.DeepEqual(got, first) {
			t.Fatalf("render %d listed rts %v, the first %v", i, got, first)
		}
	}
}

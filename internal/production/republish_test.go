package production

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/mediastore"
	"mits/internal/mheg"
)

// countingStore is a store that counts the content puts it is handed.
type countingStore struct {
	*mediastore.Store
	mu   sync.Mutex
	puts map[string]int
}

func newCountingStore() *countingStore {
	return &countingStore{Store: mediastore.New(), puts: map[string]int{}}
}

func (s *countingStore) PutContent(ref, coding string, data []byte, keywords ...string) error {
	s.mu.Lock()
	s.puts[ref]++
	s.mu.Unlock()
	return s.Store.PutContent(ref, coding, data, keywords...)
}

// since reports the puts by ref since the last call.
func (s *countingStore) since() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	puts := s.puts
	s.puts = map[string]int{}
	return puts
}

func sampleCourse(t *testing.T) *courseware.Compiled {
	t.Helper()
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// publish is one ProduceForCourse that must return the course's refs.
func publish(t *testing.T, c *Center, out *courseware.Compiled, sink ContentSink) {
	t.Helper()
	refs, err := c.ProduceForCourse(out.Container, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 6 {
		t.Fatalf("ProduceForCourse returned %d refs, want the course's 6: %v", len(refs), refs)
	}
}

// contentOf is the container's content object referencing ref.
func contentOf(t *testing.T, out *courseware.Compiled, ref string) *mheg.Content {
	t.Helper()
	for _, obj := range out.Container.Items {
		if c, ok := obj.(*mheg.Content); ok && c.ContentRef == ref {
			return c
		}
	}
	t.Fatalf("no content object references %s", ref)
	return nil
}

// TestRepublishPutsNothing: a second publish of the same course on the
// same Center finds the store holding what the first one produced and
// puts none of the course's objects; it still returns every ref.
func TestRepublishPutsNothing(t *testing.T) {
	out := sampleCourse(t)
	c, store := &Center{}, newCountingStore()
	publish(t, c, out, store)
	if first := store.since(); len(first) != 6 {
		t.Fatalf("the first publish put %v, want each of 6 objects once", first)
	}
	publish(t, c, out, store)
	if again := store.since(); len(again) != 0 {
		t.Errorf("the second publish put %v, want nothing", again)
	}
}

// TestOverwrittenRefIsProducedAgain: a ref that another writer
// overwrote between two publishes is produced and put again — the store
// is asked, not the Center's memory alone — and only that one.
func TestOverwrittenRefIsProducedAgain(t *testing.T) {
	out := sampleCourse(t)
	c, store := &Center{}, newCountingStore()
	publish(t, c, out, store)
	const ref = "store/atm/cell-format.jpg"
	want, _ := store.ContentDigest(ref)
	store.since()
	if err := store.Store.PutContent(ref, "JPEG", []byte("someone else's picture")); err != nil {
		t.Fatal(err)
	}
	publish(t, c, out, store)
	if again := store.since(); !reflect.DeepEqual(again, map[string]int{ref: 1}) {
		t.Errorf("after %s was overwritten the publish put %v, want it alone", ref, again)
	}
	if got, _ := store.ContentDigest(ref); got != want {
		t.Errorf("%s holds digest %#x after the publish, the first produced %#x", ref, got, want)
	}
}

// TestChangedRecipeIsProducedAgain: a content object whose presentation
// hints changed is produced again, and so is every object when the
// Center's SeedBase changed; what the store then holds is what a fresh
// Center makes of the new recipe.
func TestChangedRecipeIsProducedAgain(t *testing.T) {
	out := sampleCourse(t)
	c, store := &Center{SeedBase: 1}, newCountingStore()
	publish(t, c, out, store)
	store.since()

	const ref = "store/atm/welcome.mpg"
	contentOf(t, out, ref).OrigDuration += time.Second
	publish(t, c, out, store)
	if again := store.since(); !reflect.DeepEqual(again, map[string]int{ref: 1}) {
		t.Errorf("after %s's duration changed the publish put %v, want it alone", ref, again)
	}

	c.SeedBase = 2
	publish(t, c, out, store)
	if again := store.since(); len(again) != 6 {
		t.Errorf("after SeedBase changed the publish put %v, want all 6 objects", again)
	}
	fresh := newCountingStore()
	publish(t, &Center{SeedBase: 2}, out, fresh)
	for r := range fresh.since() {
		got, _ := store.ContentDigest(r)
		if want, _ := fresh.ContentDigest(r); got != want {
			t.Errorf("%s holds digest %#x, a fresh Center of the new recipe makes %#x", r, got, want)
		}
	}
}

// TestPublishersShareOneCenter: two publishers on one Center, each into
// its own store and both into a shared one, run concurrently (under
// -race: no report) and every store ends up holding every object.
func TestPublishersShareOneCenter(t *testing.T) {
	out := sampleCourse(t)
	c, shared := &Center{}, newCountingStore()
	own := []*countingStore{newCountingStore(), newCountingStore()}
	var wg sync.WaitGroup
	for _, mine := range own {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, sink := range []ContentSink{mine, shared} {
					if _, err := c.ProduceForCourse(out.Container, sink); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, s := range append(own, shared) {
		for _, ref := range out.MediaRefs {
			if d, _ := s.ContentDigest(ref); d == 0 {
				t.Errorf("store %d lacks %s", i, ref)
			}
		}
		if puts := s.since(); len(puts) != 6 {
			t.Errorf("store %d was put %v, want each of 6 objects", i, puts)
		}
	}
}

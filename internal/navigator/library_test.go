package navigator

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mits/internal/cache"
	"mits/internal/mediastore"
	"mits/internal/transport"
)

// stockedStore holds fanout^3 holdings at the leaves of a three-level
// keyword tree: 2 + 4 + 8 nodes below the root at fanout 2, 8 + 64 + 512
// at fanout 8 (browse_hot's library).
func stockedStore(t *testing.T, fanout int) *mediastore.Store {
	t.Helper()
	store := mediastore.New()
	for i := 0; i < fanout*fanout*fanout; i++ {
		kw := fmt.Sprintf("a%d/b%d/c%d", i/(fanout*fanout), i/fanout%fanout, i%fanout)
		if _, err := store.PutDocument(fmt.Sprintf("h%03d", i), "T", "raw-html", []byte("x"), kw); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func loopbackNavigator(store *mediastore.Store, c *cache.Cache) *Navigator {
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	return New(Options{DB: transport.Loopback{H: mux}, ContentCache: c})
}

// TestLibraryTreeRevalidationBudget: what asking "is my tree still good"
// allocates, navigator, stub layer and store included, on the carrier
// with no wire in it. The count repeats exactly and — the property — is
// the same for a tree of 8 leaves and one of 512: an unchanged tree costs
// nothing that grows with it. (Fetching the 512-leaf tree afresh: ≈3 950.)
func TestLibraryTreeRevalidationBudget(t *testing.T) {
	const budget = 10 // as measured
	var counts []float64
	for _, fanout := range []int{2, 8} {
		nav := loopbackNavigator(stockedStore(t, fanout), nil)
		held, err := nav.LibraryTree()
		if err != nil || len(held.Children) != fanout {
			t.Fatalf("fanout %d: tree %+v, %v", fanout, held, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if tree, err := nav.LibraryTree(); err != nil || tree != held {
				t.Fatalf("revalidated tree %p (held %p), %v", tree, held, err)
			}
		})
		t.Logf("revalidated LibraryTree over Loopback, fanout %d: %.0f allocs/op", fanout, allocs)
		counts = append(counts, allocs)
	}
	if raceEnabled {
		return
	}
	if counts[0] != counts[1] {
		t.Errorf("revalidation costs %.0f allocs/op on the small tree and %.0f on the large one, want the same", counts[0], counts[1])
	}
	if counts[1] > budget {
		t.Errorf("revalidated LibraryTree costs %.0f allocs/op, budget %d", counts[1], budget)
	}
}

// TestCachedReadLibraryAllocatesNothing: a ReadLibrary hit in the content
// cache returns the shared record — no copy, no decode, no allocation.
// (The one exact bit of the retired saturation gate, E32.)
func TestCachedReadLibraryAllocatesNothing(t *testing.T) {
	store := mediastore.New()
	if err := store.PutContent("library/h.html", "html", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	nav := loopbackNavigator(store, cache.New("navigator-test", 1<<20))
	first, err := nav.ReadLibrary("library/h.html")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if rec, err := nav.ReadLibrary("library/h.html"); err != nil || rec != first {
			t.Fatalf("cached read: record %p (first %p), %v", rec, first, err)
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("a cached ReadLibrary costs %.0f allocs/op, want 0", allocs)
	}
}

// TestLibraryTreeHostilePeer: a peer that answers "unchanged" to a
// browser holding nothing, or under a tag the browser did not name, is
// refused with the typed error — the browser never returns a nil tree
// and never passes off the tree it holds as confirmed. A tree sent under
// tag 0 is shown and not held.
func TestLibraryTreeHostilePeer(t *testing.T) {
	tree := &mediastore.KeywordNode{Children: []*mediastore.KeywordNode{{Name: "network", Docs: []string{"doc"}}}}
	var reply func(request []byte) ([]byte, error)
	var requests [][]byte
	nav := New(Options{DB: transport.Loopback{H: transport.HandlerFunc(func(_ string, request []byte) ([]byte, error) {
		requests = append(requests, request)
		return reply(request)
	})}})
	answer := func(root *mediastore.KeywordNode, tag uint64) {
		reply = func(request []byte) ([]byte, error) { return transport.EncodeKeywordTree(nil, root, tag) }
	}

	answer(nil, 7)
	if got, err := nav.LibraryTree(); !errors.Is(err, transport.ErrKeywordTag) || got != nil {
		t.Errorf("unchanged to a browser holding nothing: %+v, %v", got, err)
	}
	holdingNothing := requests[0]
	answer(nil, 0)
	if got, err := nav.LibraryTree(); !errors.Is(err, transport.ErrKeywordTag) || got != nil {
		t.Errorf("unchanged under tag 0: %+v, %v", got, err)
	}

	answer(tree, 0)
	for i := 0; i < 2; i++ {
		requests = nil
		if got, err := nav.LibraryTree(); err != nil || len(got.Children) != 1 {
			t.Fatalf("a tree under tag 0: %+v, %v", got, err)
		}
		if len(requests) != 1 || !bytes.Equal(requests[0], holdingNothing) {
			t.Errorf("after a tree under tag 0 the browser asked with %x, want %x as when it held nothing", requests, holdingNothing)
		}
	}

	answer(tree, 41)
	held, err := nav.LibraryTree()
	if err != nil || held.Children[0].Name != "network" {
		t.Fatalf("a tree under tag 41: %+v, %v", held, err)
	}
	answer(nil, 42)
	if got, err := nav.LibraryTree(); !errors.Is(err, transport.ErrKeywordTag) || got != nil {
		t.Errorf("unchanged under a tag not asked about: %+v, %v", got, err)
	}
	reply = func(request []byte) ([]byte, error) { return transport.EncodeKeywordTree(request, tree, 41) }
	if got, err := nav.LibraryTree(); err != nil || got != held {
		t.Errorf("unchanged under the tag asked about: %p (held %p), %v", got, held, err)
	}
	full, _ := transport.EncodeKeywordTree(nil, tree, 43)
	reply = func([]byte) ([]byte, error) { return full[:len(full)-3], nil }
	if got, err := nav.LibraryTree(); err == nil || got != nil {
		t.Errorf("a truncated reply: %+v, %v", got, err)
	}
	if got, err := nav.LibraryTree(); err == nil || got != nil {
		t.Errorf("a truncated reply, again: %+v, %v", got, err)
	}
}

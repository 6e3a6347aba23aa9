package mediastore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// countNodes is the walk the gauge used to take per publish; the tests
// hold the running count to it.
func countNodes(n *kwNode) int {
	total := 1
	for _, c := range n.children {
		total += countNodes(c)
	}
	return total
}

// cloneTree deep-copies a snapshot, so a test can tell later whether
// the original was written to.
func cloneTree(n *KeywordNode) *KeywordNode {
	cp := &KeywordNode{Name: n.Name, Docs: append([]string(nil), n.Docs...)}
	for _, c := range n.Children {
		cp.Children = append(cp.Children, cloneTree(c))
	}
	return cp
}

// checkSnapshot fails unless the snapshot is what a reader is promised:
// docs and children sorted, and the tag the digest of exactly this tree.
func checkSnapshot(t *testing.T, root *KeywordNode, tag uint64) {
	t.Helper()
	if tag == 0 || tag != root.Digest() {
		t.Errorf("tag %#x, digest of the snapshot %#x", tag, root.Digest())
	}
	root.Walk(func(path string, n *KeywordNode) {
		if !sort.StringsAreSorted(n.Docs) {
			t.Errorf("%q: docs %v not sorted", path, n.Docs)
		}
		if !sort.SliceIsSorted(n.Children, func(i, j int) bool { return n.Children[i].Name < n.Children[j].Name }) {
			t.Errorf("%q: children not sorted", path)
		}
		if path != "" && len(n.Docs) == 0 && len(n.Children) == 0 {
			t.Errorf("%q: empty branch not pruned", path)
		}
	})
}

// TestKeywordGaugeTracksIndex: the node count add and remove keep is
// the count a walk of the index finds, over a seeded script of 1 000
// publishes, re-publishes and deletes — and publishing a document again
// under the keywords it already has changes neither tree nor tag.
func TestKeywordGaugeTracksIndex(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(21))
	randomKeywords := func() []string {
		kws := make([]string, rng.Intn(4))
		for i := range kws {
			kws[i] = fmt.Sprintf("a%d/b%d/c%d", rng.Intn(3), rng.Intn(3), rng.Intn(3))[:2+3*rng.Intn(3)]
		}
		return kws
	}
	for step := 0; step < 1000; step++ {
		name := fmt.Sprintf("doc-%d", rng.Intn(24))
		if rng.Intn(4) == 0 {
			s.DeleteDocument(name) // not found is part of the script
		} else if _, err := s.PutDocument(name, "T", "asn1", []byte("x"), randomKeywords()...); err != nil {
			t.Fatal(err)
		}
		if got, want := s.keywords.nodes, countNodes(s.keywords.root)-1; got != want {
			t.Fatalf("step %d: running count %d, a walk finds %d", step, got, want)
		}
		if got := s.obsKeywords.Value(); got != int64(s.keywords.nodes) {
			t.Fatalf("step %d: gauge %d, index holds %d", step, got, s.keywords.nodes)
		}
	}
	if s.keywords.nodes == 0 {
		t.Fatal("the script left an empty index: it checks nothing")
	}

	before, tag := s.Keywords()
	checkSnapshot(t, before, tag)
	rec, err := s.GetDocument(s.ListDocuments()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutDocument(rec.Name, "new title", "asn1", []byte("new body"), rec.Keywords...); err != nil {
		t.Fatal(err)
	}
	if after, again := s.Keywords(); again != tag || !reflect.DeepEqual(after, before) {
		t.Errorf("re-publish under the same keywords: tag %#x -> %#x", tag, again)
	}
}

// TestKeywordSnapshotBudget is the Type-1 budget of the shared snapshot:
// reading an unchanged tree allocates nothing and returns the same
// nodes, a mutation costs one build when somebody reads and none when
// nobody does, and a snapshot handed out is never written to again.
func TestKeywordSnapshotBudget(t *testing.T) {
	s := New()
	builds := snapshotBuilds.Value
	for i := 0; i < 64; i++ {
		if _, err := s.PutDocument(fmt.Sprintf("doc-%d", i), "T", "asn1", []byte("x"), fmt.Sprintf("k%d/l%d", i/8, i%8)); err != nil {
			t.Fatal(err)
		}
	}
	start := builds()
	first, tag := s.Keywords()
	if got := builds() - start; got != 1 {
		t.Errorf("64 publishes then one read: %d snapshot builds, want 1", got)
	}
	checkSnapshot(t, first, tag)
	if allocs := testing.AllocsPerRun(100, func() {
		if root, again := s.Keywords(); root != first || again != tag {
			t.Fatalf("unchanged tree: snapshot %p tag %#x, then %p tag %#x", first, tag, root, again)
		}
	}); allocs != 0 {
		t.Errorf("Keywords() on an unchanged tree: %v allocs, want 0", allocs)
	}
	if got := builds() - start; got != 1 {
		t.Errorf("reads of an unchanged tree rebuilt it: %d builds", got)
	}

	frozen := cloneTree(first)
	for round := 1; round <= 3; round++ {
		if _, err := s.PutDocument("doc-0", "T", "asn1", []byte("x"), fmt.Sprintf("round%d", round)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutContent("ref", "mpeg", []byte("x"), "content/keywords/are/not/indexed"); err != nil {
			t.Fatal(err)
		}
		next, nextTag := s.Keywords()
		if got := builds() - start; got != int64(1+round) {
			t.Errorf("round %d: %d builds, want %d", round, got, 1+round)
		}
		if next == first || nextTag == tag {
			t.Errorf("round %d: a publish under a new keyword left snapshot %p tag %#x", round, next, nextTag)
		}
		checkSnapshot(t, next, nextTag)
	}
	if !reflect.DeepEqual(first, frozen) || first.Digest() != tag {
		t.Error("a snapshot handed out earlier was modified by later publishes")
	}
}

// TestKeywordTagSurvivesRestart: the tag is a digest of the content, so
// a store loaded from its image answers under the tag the saved one
// did, two stores published to in different orders agree, and any
// difference in the tree is a different tag.
func TestKeywordTagSurvivesRestart(t *testing.T) {
	publish := func(s *Store, order []int) {
		for _, i := range order {
			if _, err := s.PutDocument(fmt.Sprintf("doc-%d", i), "T", "asn1", []byte("x"), fmt.Sprintf("k%d", i%3), "shared/leaf"); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := New(), New()
	publish(a, []int{0, 1, 2, 3, 4, 5})
	publish(b, []int{5, 3, 1, 4, 2, 0})
	rootA, tagA := a.Keywords()
	if rootB, tagB := b.Keywords(); tagA != tagB || !reflect.DeepEqual(rootA, rootB) {
		t.Errorf("same documents, different order: tags %#x and %#x", tagA, tagB)
	}

	path := filepath.Join(t.TempDir(), "image.gob")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, tag := loaded.Keywords(); tag != tagA {
		t.Errorf("restarted from the image: tag %#x, was %#x", tag, tagA)
	}
	if got, want := loaded.obsKeywords.Value(), int64(countNodes(loaded.keywords.root)-1); got != want {
		t.Errorf("after Load the gauge reads %d, the index holds %d", got, want)
	}

	seen := map[uint64]string{tagA: "the six documents"}
	for _, step := range []struct {
		what   string
		mutate func()
	}{
		{"one more document at an existing leaf", func() { publish(loaded, []int{6}) }},
		{"a document moved between leaves", func() { loaded.PutDocument("doc-0", "T", "asn1", []byte("x"), "k1", "shared/leaf") }},
		{"a leaf renamed", func() { loaded.PutDocument("doc-1", "T", "asn1", []byte("x"), "k1", "shared/leaf2") }},
		{"a document deleted", func() { loaded.DeleteDocument("doc-2") }},
	} {
		step.mutate()
		_, tag := loaded.Keywords()
		if prev, dup := seen[tag]; dup {
			t.Errorf("%s: tag %#x, the tag of %s", step.what, tag, prev)
		}
		seen[tag] = step.what
	}
	if _, tag := New().Keywords(); tag == 0 || seen[tag] != "" {
		t.Errorf("empty store: tag %#x", tag)
	}
}

// TestKeywordSnapshotsConcurrent: four publishers and four readers on
// one store. Every snapshot a reader is handed is whole — sorted, and
// digesting to the tag it came with — and stays as it was: the readers
// keep what they saw and digest it again after the publishers are done.
func TestKeywordSnapshotsConcurrent(t *testing.T) {
	s := New()
	type seen struct {
		root *KeywordNode
		tag  uint64
	}
	const writers, readers, rounds = 4, 4, 200
	kept := make([][]seen, readers)
	var wg, pub sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		pub.Add(1)
		go func(w int) {
			defer pub.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d-doc%d", w, i%5)
				if i%7 == 6 {
					s.DeleteDocument(name)
					continue
				}
				if _, err := s.PutDocument(name, "T", "asn1", []byte("x"), fmt.Sprintf("w%d/r%d", w, i%11), fmt.Sprintf("all/r%d", i%3)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				root, tag := s.Keywords()
				checkSnapshot(t, root, tag)
				if n := len(kept[r]); n == 0 || kept[r][n-1].root != root {
					kept[r] = append(kept[r], seen{root, tag})
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}
	pub.Wait()
	close(stop)
	wg.Wait()
	for r := range kept {
		for _, k := range kept[r] {
			if got := k.root.Digest(); got != k.tag {
				t.Fatalf("reader %d: a snapshot handed out under tag %#x now digests to %#x", r, k.tag, got)
			}
		}
	}
	final, tag := s.Keywords()
	checkSnapshot(t, final, tag)
}

package mediastore

import (
	"sort"
	"strings"
	"sync/atomic"

	"mits/internal/obs"
)

// KeywordTree indexes documents by hierarchical keyword paths
// ("network/atm/cells"). The navigator's library browser renders the
// tree (GetKeywordTree, §5.5) and resolves keyword queries through it.
// It has no lock of its own: add and remove need the store's write
// lock, Find and Snapshot run beside one another under its read lock.
type KeywordTree struct {
	root  *kwNode
	nodes int // keyword paths below the root, kept by add and remove: the obs gauge

	// snap is the index in client-safe form, nil from a mutation until
	// the first Snapshot after it: a publish nobody reads rebuilds nothing.
	snap atomic.Pointer[treeSnapshot]
}

var snapshotBuilds = obs.GetCounter("mediastore_keyword_snapshot_builds_total")

type treeSnapshot struct {
	root *KeywordNode
	tag  uint64
}

type kwNode struct {
	children map[string]*kwNode
	docs     map[string]bool
}

func newKwNode() *kwNode {
	return &kwNode{children: make(map[string]*kwNode), docs: make(map[string]bool)}
}

// NewKeywordTree creates an empty index.
func NewKeywordTree() *KeywordTree { return &KeywordTree{root: newKwNode()} }

func splitPath(keyword string) []string {
	var parts []string
	for _, p := range strings.Split(strings.ToLower(keyword), "/") {
		p = strings.TrimSpace(p)
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

func (t *KeywordTree) add(doc string, keywords []string) {
	t.snap.Store(nil)
	for _, kw := range keywords {
		node := t.root
		for _, part := range splitPath(kw) {
			child, ok := node.children[part]
			if !ok {
				child = newKwNode()
				node.children[part] = child
				t.nodes++
			}
			node = child
		}
		if node != t.root {
			node.docs[doc] = true
		}
	}
}

func (t *KeywordTree) remove(doc string, keywords []string) {
	t.snap.Store(nil)
	for _, kw := range keywords {
		node := t.root
		path := []*kwNode{node}
		parts := splitPath(kw)
		ok := true
		for _, part := range parts {
			child, exists := node.children[part]
			if !exists {
				ok = false
				break
			}
			node = child
			path = append(path, node)
		}
		if !ok || node == t.root {
			continue
		}
		delete(node.docs, doc)
		// Prune empty branches bottom-up.
		for i := len(path) - 1; i > 0; i-- {
			n := path[i]
			if len(n.docs) == 0 && len(n.children) == 0 {
				delete(path[i-1].children, parts[i-1])
				t.nodes--
			}
		}
	}
}

// Find returns the sorted names of documents tagged at or below the
// keyword path.
func (t *KeywordTree) Find(keyword string) []string {
	node := t.root
	for _, part := range splitPath(keyword) {
		child, ok := node.children[part]
		if !ok {
			return nil
		}
		node = child
	}
	set := make(map[string]bool)
	collect(node, set)
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func collect(n *kwNode, into map[string]bool) {
	for d := range n.docs {
		into[d] = true
	}
	for _, c := range n.children {
		collect(c, into)
	}
}

// KeywordNode is an immutable snapshot of one tree node, handed to
// clients for library browsing — to all of them: never modify one.
type KeywordNode struct {
	Name     string
	Docs     []string
	Children []*KeywordNode
}

// Snapshot returns the tree in client-safe form, docs and children
// sorted, with its tag: the same nodes on every call until a mutation.
func (t *KeywordTree) Snapshot() (*KeywordNode, uint64) {
	s := t.snap.Load()
	if s == nil {
		root := snapshot("", t.root)
		s = &treeSnapshot{root, root.Digest()}
		t.snap.Store(s)
		snapshotBuilds.Inc()
	}
	return s.root, s.tag
}

// Digest is the tag of the tree below n: an FNV-1a hash of its canonical
// form (each name and document with its length, each count, in order),
// low bit set so that 0 can say "no tree". Equal trees have equal tags
// whichever store, replica or router built them, and whenever. It guards
// against a stale copy, not against an author who forges a collision.
func (n *KeywordNode) Digest() uint64 { return n.digest(14695981039346656037) | 1 }

func (n *KeywordNode) digest(h uint64) uint64 {
	h = digestString(h, n.Name)
	h = (h ^ uint64(len(n.Docs))<<32 ^ uint64(len(n.Children))) * fnvPrime
	for _, d := range n.Docs {
		h = digestString(h, d)
	}
	for _, c := range n.Children {
		h = c.digest(h)
	}
	return h
}

const fnvPrime = 1099511628211

func digestString(h uint64, s string) uint64 {
	h = (h ^ uint64(len(s))) * fnvPrime
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func snapshot(name string, n *kwNode) *KeywordNode {
	out := &KeywordNode{Name: name}
	for d := range n.docs {
		out.Docs = append(out.Docs, d)
	}
	sort.Strings(out.Docs)
	names := make([]string, 0, len(n.children))
	for c := range n.children {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		out.Children = append(out.Children, snapshot(c, n.children[c]))
	}
	return out
}

// Walk visits every node of a snapshot depth-first with its full path.
func (n *KeywordNode) Walk(fn func(path string, node *KeywordNode)) {
	n.walk("", fn)
}

func (n *KeywordNode) walk(prefix string, fn func(string, *KeywordNode)) {
	path := n.Name
	if prefix != "" && n.Name != "" {
		path = prefix + "/" + n.Name
	} else if prefix != "" {
		path = prefix
	}
	fn(path, n)
	for _, c := range n.Children {
		c.walk(path, fn)
	}
}

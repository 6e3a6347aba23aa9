package cluster

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"mits/internal/faults"
	"mits/internal/mediastore"
	"mits/internal/navigator"
	"mits/internal/transport"
	"mits/internal/transport/wiretest"
)

// unchangedReplyMax bounds an "unchanged" GetKeywordTree reply: the
// tag's varint (10 bytes for most digests) and the absent tree's
// presence byte, 11 bytes as measured, + 10 %.
const unchangedReplyMax = 12

// hasKeyword reports whether the tree has a node at the keyword path.
func hasKeyword(tree *mediastore.KeywordNode, path string) (found bool) {
	tree.Walk(func(p string, _ *mediastore.KeywordNode) { found = found || p == path })
	return found
}

// browseScript is what a library browser is owed, against any front
// door: a publish shows in the next fetch, a keyword whose last document
// is deleted is gone from the next fetch, and a fetch with nothing
// published in between costs a short reply and returns the tree already
// held. settle waits for a publish to reach whoever may serve the next
// read; remove deletes a document from the stores behind the door.
func browseScript(t *testing.T, front transport.Client, settle func(), remove func(name string)) {
	t.Helper()
	rec := &wiretest.Recorder{Next: front}
	db := transport.DBClient{C: front}
	nav := navigator.New(navigator.Options{DB: rec})
	publish := func(name string, keywords ...string) {
		t.Helper()
		if _, err := db.PutDocument(name, "T", "text", []byte("b"), keywords...); err != nil {
			t.Fatal(err)
		}
		settle()
	}
	fetch := func() *mediastore.KeywordNode {
		t.Helper()
		tree, err := nav.LibraryTree()
		if err != nil || tree == nil {
			t.Fatalf("LibraryTree = %+v, %v", tree, err)
		}
		return tree
	}
	lastReply := func() []byte { return rec.Calls[len(rec.Calls)-1].Resp }

	for i, kw := range []string{"network/atm", "network/ip", "media/mpeg", "media/jpeg/progressive"} {
		publish("doc-"+kw, kw, "all")
		if i == 0 {
			fetch() // the browser holds a tree before most of the library exists
		}
	}
	first := fetch()
	if !hasKeyword(first, "media/jpeg/progressive") || hasKeyword(first, "broadband/sonet") {
		t.Fatalf("tree after four publishes: %+v", first)
	}
	full := len(lastReply())

	again := fetch()
	if again != first {
		t.Errorf("nothing published in between: a second tree %p, the first was %p", again, first)
	}
	if n := len(lastReply()); n > unchangedReplyMax || n >= full {
		t.Errorf("nothing published in between: a %d-byte reply (the tree took %d), want at most %d", n, full, unchangedReplyMax)
	}
	if req := rec.Calls[len(rec.Calls)-1].Req; bytes.Equal(req, rec.Calls[0].Req) {
		t.Errorf("the second fetch asked with %x, as the first, which held nothing", req)
	}

	publish("doc-new", "broadband/sonet", "all")
	added := fetch()
	if added == first || !hasKeyword(added, "broadband/sonet") || !hasKeyword(added, "network/atm") {
		t.Errorf("after a publish under a new keyword: %+v", added)
	}
	if hasKeyword(first, "broadband/sonet") {
		t.Error("the tree handed out before the publish was written to")
	}

	remove("doc-new")
	pruned := fetch()
	if hasKeyword(pruned, "broadband/sonet") || hasKeyword(pruned, "broadband") {
		t.Errorf("after the keyword's only document was deleted: %+v", pruned)
	}
	if pruned.Digest() != first.Digest() {
		t.Errorf("the library is what it was at the first fetch, but digests %#x then and %#x now", first.Digest(), pruned.Digest())
	}
	if fetch() != pruned {
		t.Error("nothing published in between: a new tree")
	}
}

// TestLibraryTreeFreshness runs the browse script against one store over
// TCP and against a router over 2 shards x 2 replicas, where the tag is
// the digest of a tree no shard holds.
func TestLibraryTreeFreshness(t *testing.T) {
	t.Run("store", func(t *testing.T) {
		node, err := StartStoreNode("solo", faults.Scenario{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		c, err := transport.DialTCP(node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		browseScript(t, c, func() {}, func(name string) {
			if err := node.Store.DeleteDocument(name); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("router", func(t *testing.T) {
		r, nodes := testCluster(t, 2, 2)
		browseScript(t, transport.Loopback{H: r}, func() {
			if !r.WaitConverged(5 * time.Second) {
				t.Fatal("replicas did not converge")
			}
		}, func(name string) {
			deleted := 0
			for _, shard := range nodes {
				for _, n := range shard {
					if n.Store.DeleteDocument(name) == nil {
						deleted++
					}
				}
			}
			if deleted != 2 {
				t.Fatalf("%s deleted from %d nodes, want one shard's 2", name, deleted)
			}
		})
	})
}

// TestLibraryTreeAcrossRestart: a browser that held a tree while its
// store went away revalidates against whatever came back. Restored from
// the image, the store answers "unchanged" under the tag the old process
// gave out; with anything else in it, the browser gets the new tree.
func TestLibraryTreeAcrossRestart(t *testing.T) {
	serve := func(store *mediastore.Store) transport.Client {
		mux := transport.NewMux()
		transport.RegisterStore(mux, store)
		srv := transport.NewTCPServer(mux)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := transport.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	store := mediastore.New()
	for _, kw := range []string{"network/atm", "network/ip", "media/mpeg"} {
		if _, err := store.PutDocument("doc-"+kw, "T", "text", []byte("b"), kw); err != nil {
			t.Fatal(err)
		}
	}
	image := filepath.Join(t.TempDir(), "image.gob")
	if err := store.Save(image); err != nil {
		t.Fatal(err)
	}

	rec := &wiretest.Recorder{Next: serve(store)}
	nav := navigator.New(navigator.Options{DB: rec})
	held, err := nav.LibraryTree()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := mediastore.Load(image)
	if err != nil {
		t.Fatal(err)
	}
	rec.Next = serve(restored)
	tree, err := nav.LibraryTree()
	if err != nil || tree != held {
		t.Fatalf("restored from the image: tree %p (held %p), %v", tree, held, err)
	}
	if n := len(rec.Calls[len(rec.Calls)-1].Resp); n > unchangedReplyMax {
		t.Errorf("restored from the image: a %d-byte reply, want the unchanged one", n)
	}

	other := mediastore.New()
	if _, err := other.PutDocument("doc", "T", "text", []byte("b"), "network/atm"); err != nil {
		t.Fatal(err)
	}
	rec.Next = serve(other)
	tree, err = nav.LibraryTree()
	if err != nil || tree == held || hasKeyword(tree, "media/mpeg") || !hasKeyword(tree, "network/atm") {
		t.Fatalf("restarted with other content: tree %+v, %v", tree, err)
	}
}

package mediastore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestDocumentCRUD(t *testing.T) {
	s := New()
	v, err := s.PutDocument("atm-course", "ATM Technology", "asn1", []byte("data-v1"), "network/atm")
	if err != nil || v != 1 {
		t.Fatalf("Put: v=%d err=%v", v, err)
	}
	rec, err := s.GetDocument("atm-course")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Title != "ATM Technology" || string(rec.Data) != "data-v1" || rec.Version != 1 {
		t.Errorf("record %+v", rec)
	}
	// Update bumps version.
	v, _ = s.PutDocument("atm-course", "ATM Technology v2", "asn1", []byte("data-v2"), "network/atm", "broadband")
	if v != 2 {
		t.Errorf("update version %d, want 2", v)
	}
	rec, _ = s.GetDocument("atm-course")
	if string(rec.Data) != "data-v2" {
		t.Error("update did not replace data")
	}
	// Returned record is a copy, not an alias.
	rec.Data[0] = 'X'
	again, _ := s.GetDocument("atm-course")
	if string(again.Data) != "data-v2" {
		t.Error("GetDocument aliases internal state")
	}
	// List and delete.
	s.PutDocument("ip-course", "IP", "asn1", []byte("x"), "network/ip")
	if got := s.ListDocuments(); !reflect.DeepEqual(got, []string{"atm-course", "ip-course"}) {
		t.Errorf("list %v", got)
	}
	if err := s.DeleteDocument("ip-course"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDocument("ip-course"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err=%v", err)
	}
	if _, err := s.GetDocument("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing doc err=%v", err)
	}
}

func TestDocumentValidation(t *testing.T) {
	s := New()
	if _, err := s.PutDocument("", "t", "asn1", []byte("x")); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.PutDocument("n", "t", "asn1", nil); err == nil {
		t.Error("empty data accepted")
	}
	if err := s.PutContent("", "WAV", []byte("x")); err == nil {
		t.Error("empty content ref accepted")
	}
	if err := s.PutContent("r", "WAV", nil); err == nil {
		t.Error("empty content data accepted")
	}
}

func TestContentDatabase(t *testing.T) {
	s := New()
	if err := s.PutContent("store/atm/welcome.mpg", "MPEG", []byte("videodata")); err != nil {
		t.Fatal(err)
	}
	s.PutContent("store/atm/cells.wav", "WAV", []byte("audiodata"))
	s.PutContent("store/net/lan.jpg", "JPEG", []byte("img"))

	rec, err := s.GetContent("store/atm/welcome.mpg")
	if err != nil || rec.Coding != "MPEG" || string(rec.Data) != "videodata" {
		t.Fatalf("content %+v err=%v", rec, err)
	}
	if _, err := s.GetContent("store/zzz"); !errors.Is(err, ErrNotFound) {
		t.Error("missing content found")
	}
	for ref, held := range map[string]bool{"store/atm/cells.wav": true, "store/zzz": false} {
		if d, err := s.ContentDigest(ref); err != nil || (d != 0) != held {
			t.Errorf("ContentDigest(%s) = %#x, %v; held %v", ref, d, err, held)
		}
	}
	docs, contents := s.Sizes()
	if docs != 0 || contents != 3 {
		t.Errorf("sizes %d/%d", docs, contents)
	}
}

func TestKeywordQueries(t *testing.T) {
	s := New()
	s.PutDocument("atm", "t", "asn1", []byte("x"), "network/atm/cells", "broadband")
	s.PutDocument("ip", "t", "asn1", []byte("x"), "network/ip")
	s.PutDocument("art", "t", "asn1", []byte("x"), "humanities/art")

	if got := s.DocsByKeyword("network"); !reflect.DeepEqual(got, []string{"atm", "ip"}) {
		t.Errorf("network → %v", got)
	}
	if got := s.DocsByKeyword("network/atm"); !reflect.DeepEqual(got, []string{"atm"}) {
		t.Errorf("network/atm → %v", got)
	}
	if got := s.DocsByKeyword("BROADBAND"); !reflect.DeepEqual(got, []string{"atm"}) {
		t.Errorf("case-insensitive lookup → %v", got)
	}
	if got := s.DocsByKeyword("zzz"); got != nil {
		t.Errorf("unknown keyword → %v", got)
	}

	// Updating a document's keywords re-indexes it.
	s.PutDocument("atm", "t", "asn1", []byte("x"), "legacy")
	if got := s.DocsByKeyword("network"); !reflect.DeepEqual(got, []string{"ip"}) {
		t.Errorf("after re-keyword: network → %v", got)
	}
	if got := s.DocsByKeyword("legacy"); !reflect.DeepEqual(got, []string{"atm"}) {
		t.Errorf("legacy → %v", got)
	}

	// Deleting removes from the index and prunes branches.
	s.DeleteDocument("art")
	if got := s.DocsByKeyword("humanities"); got != nil {
		t.Errorf("deleted doc still indexed: %v", got)
	}
	tree, _ := s.Keywords()
	for _, c := range tree.Children {
		if c.Name == "humanities" {
			t.Error("empty branch not pruned")
		}
	}
}

func TestKeywordTreeSnapshot(t *testing.T) {
	s := New()
	s.PutDocument("atm", "t", "asn1", []byte("x"), "network/atm", "network/broadband")
	s.PutDocument("ip", "t", "asn1", []byte("x"), "network/ip")
	tree, _ := s.Keywords()
	if len(tree.Children) != 1 || tree.Children[0].Name != "network" {
		t.Fatalf("tree root children %+v", tree.Children)
	}
	net := tree.Children[0]
	var names []string
	for _, c := range net.Children {
		names = append(names, c.Name)
	}
	if !reflect.DeepEqual(names, []string{"atm", "broadband", "ip"}) {
		t.Errorf("children %v (must be sorted)", names)
	}
	var paths []string
	tree.Walk(func(path string, n *KeywordNode) { paths = append(paths, path) })
	want := []string{"", "network", "network/atm", "network/broadband", "network/ip"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("walk paths %v, want %v", paths, want)
	}
}

// Property: any sequence of puts followed by keyword lookups finds
// exactly the documents whose keyword set includes a matching prefix.
func TestKeywordIndexProperty(t *testing.T) {
	words := []string{"a", "b", "c", "a/x", "a/y", "b/x"}
	f := func(assign []uint8) bool {
		s := New()
		docKw := make(map[string]string)
		for i, a := range assign {
			if i >= 20 {
				break
			}
			name := string(rune('d'+i%20)) + "-doc" + string(rune('0'+i%10))
			kw := words[int(a)%len(words)]
			docKw[name] = kw
			s.PutDocument(name, "t", "asn1", []byte("x"), kw)
		}
		for _, query := range words {
			got := s.DocsByKeyword(query)
			gotSet := make(map[string]bool, len(got))
			for _, g := range got {
				gotSet[g] = true
			}
			for name, kw := range docKw {
				matches := kw == query || len(kw) > len(query) && kw[:len(query)+1] == query+"/"
				if matches != gotSet[name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	s.PutContent("store/x", "WAV", []byte("x"))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				switch j % 4 {
				case 0:
					s.PutDocument("doc", "t", "asn1", []byte("x"), "kw")
				case 1:
					s.GetContent("store/x")
				case 2:
					s.DocsByKeyword("kw")
				case 3:
					s.ListDocuments()
				}
			}
		}(i)
	}
	wg.Wait()
	if _, reads, bytes := s.Stats(); reads == 0 || bytes == 0 {
		t.Error("stats not accumulating")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db", "mits.db")
	s := New()
	s.PutDocument("atm", "ATM", "asn1", []byte("docdata"), "network/atm")
	s.PutContent("store/v.mpg", "MPEG", []byte("vid"), "video")

	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := loaded.GetDocument("atm")
	if err != nil || string(rec.Data) != "docdata" || rec.Version != 1 {
		t.Errorf("loaded doc %+v err=%v", rec, err)
	}
	if got := loaded.DocsByKeyword("network"); len(got) != 1 {
		t.Error("keyword index not rebuilt on load")
	}
	c, err := loaded.GetContent("store/v.mpg")
	if err != nil || string(c.Data) != "vid" {
		t.Errorf("loaded content %+v err=%v", c, err)
	}
	if _, err := Load(filepath.Join(dir, "missing.db")); err == nil {
		t.Error("loading missing file succeeded")
	}
}

// Property: save/load preserves every stored document and content blob.
func TestSaveLoadProperty(t *testing.T) {
	dir := t.TempDir()
	f := func(docs map[string][]byte) bool {
		s := New()
		expect := make(map[string][]byte)
		for name, data := range docs {
			if name == "" || len(data) == 0 {
				continue
			}
			if _, err := s.PutDocument(name, "t", "asn1", data, "kw/"+name); err != nil {
				return false
			}
			if err := s.PutContent("c/"+name, "RAW", data); err != nil {
				return false
			}
			expect[name] = data
		}
		path := filepath.Join(dir, "prop.db")
		if err := s.Save(path); err != nil {
			return false
		}
		loaded, err := Load(path)
		if err != nil {
			return false
		}
		for name, data := range expect {
			rec, err := loaded.GetDocument(name)
			if err != nil || !bytes.Equal(rec.Data, data) {
				return false
			}
			c, err := loaded.GetContent("c/" + name)
			if err != nil || !bytes.Equal(c.Data, data) {
				return false
			}
			if got := loaded.DocsByKeyword("kw/" + name); len(got) != 1 || got[0] != name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGetContentDataIsPrivateCopy is the aliasing regression test for
// the content cache era: mutating what GetContent returned must never
// reach the store's internal record, or a cached read could corrupt
// every later reader.
func TestGetContentDataIsPrivateCopy(t *testing.T) {
	s := New()
	if err := s.PutContent("store/v.mpg", "mpeg", []byte{1, 2, 3}, "video"); err != nil {
		t.Fatal(err)
	}
	rec, err := s.GetContent("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	rec.Data[0] = 99
	rec.Keywords[0] = "tampered"

	again, err := s.GetContent("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Data, []byte{1, 2, 3}) {
		t.Fatalf("caller mutation reached the store: %v", again.Data)
	}
	if again.Keywords[0] != "video" {
		t.Fatalf("caller mutation reached stored keywords: %v", again.Keywords)
	}
}

// TestGetContentBorrowIsZeroCopy pins the other end of the borrow/clone
// split: GetContentBorrow returns the store's own record — no copy at
// all — which is what makes it the serving hot path.
func TestGetContentBorrowIsZeroCopy(t *testing.T) {
	s := New()
	if err := s.PutContent("store/v.mpg", "mpeg", []byte{1, 2, 3}, "video"); err != nil {
		t.Fatal(err)
	}
	b1, err := s.GetContentBorrow("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.GetContentBorrow("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 || &b1.Data[0] != &b2.Data[0] {
		t.Fatal("GetContentBorrow copied: two borrows of one record differ")
	}
	cp, err := s.GetContent("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if &cp.Data[0] == &b1.Data[0] {
		t.Fatal("GetContent aliased the store's record: clone end broken")
	}
}

// TestPutContentKeepsCallersBuffer pins the put end of the aliasing
// contract: the store keeps the slices a put is handed, so a borrowed
// record's Data and Keywords are the caller's own, not copies of them.
func TestPutContentKeepsCallersBuffer(t *testing.T) {
	s := New()
	data, keywords := []byte{1, 2, 3}, []string{"video"}
	if err := s.PutContent("store/v.mpg", "mpeg", data, keywords...); err != nil {
		t.Fatal(err)
	}
	rec, err := s.GetContentBorrow("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if &rec.Data[0] != &data[0] || len(rec.Data) != len(data) {
		t.Error("PutContent copied the caller's data")
	}
	if &rec.Keywords[0] != &keywords[0] {
		t.Error("PutContent copied the caller's keywords")
	}
}

// TestPutDocumentKeepsCallersBuffer is the same for documents, whose
// stored record is read in place (GetDocument copies).
func TestPutDocumentKeepsCallersBuffer(t *testing.T) {
	s := New()
	data, keywords := []byte("container"), []string{"network/atm"}
	for version := 1; version <= 2; version++ { // a new record, then an update of it
		if _, err := s.PutDocument("doc", "Title", "asn1", data, keywords...); err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		rec := s.docs["doc"]
		s.mu.RUnlock()
		if rec.Version != version || &rec.Data[0] != &data[0] || len(rec.Data) != len(data) {
			t.Errorf("version %d: PutDocument copied the caller's data", version)
		}
		if &rec.Keywords[0] != &keywords[0] {
			t.Errorf("version %d: PutDocument copied the caller's keywords", version)
		}
		data, keywords = []byte("container v2"), []string{"network/atm", "updated"}
	}
}

// TestGetContentBorrowStableAcrossRepublish pins the immutability basis
// of borrowing: PutContent replaces records wholesale, so a record
// borrowed before a republish keeps reading the superseded snapshot —
// it is never mutated underneath the borrower.
func TestGetContentBorrowStableAcrossRepublish(t *testing.T) {
	s := New()
	if err := s.PutContent("store/v.mpg", "mpeg", []byte{1, 2, 3}, "video"); err != nil {
		t.Fatal(err)
	}
	old, err := s.GetContentBorrow("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutContent("store/v.mpg", "mpeg", []byte{9, 9}, "video", "v2"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old.Data, []byte{1, 2, 3}) || len(old.Keywords) != 1 {
		t.Fatalf("republish mutated a borrowed record: %v %v", old.Data, old.Keywords)
	}
	fresh, err := s.GetContentBorrow("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Data, []byte{9, 9}) {
		t.Fatalf("fresh borrow missed the republish: %v", fresh.Data)
	}
}

// TestDocumentDigest: the digest names (Encoding, Data) — the same on
// any store, whatever the title, keywords or version — is never 0, and
// a read that names the current digest is answered with the record's
// header alone, which moves no byte.
func TestDocumentDigest(t *testing.T) {
	digest := func(s *Store, name string) uint64 {
		t.Helper()
		rec, err := s.GetDocument(name)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Digest == 0 {
			t.Fatalf("%s has digest 0", name)
		}
		return rec.Digest
	}
	a, b := New(), New()
	a.PutDocument("doc", "Title", "asn1", []byte("container"), "kw")
	b.PutDocument("other", "Another title", "asn1", []byte("container"))
	b.PutDocument("other", "Another title", "asn1", []byte("container"))
	if digest(a, "doc") != digest(b, "other") {
		t.Error("equal encoding and data under different names, titles and versions digest differently")
	}
	a.PutDocument("sgml", "Title", "sgml", []byte("container"))
	a.PutDocument("data", "Title", "asn1", []byte("container!"))
	a.PutDocument("split", "Title", "asn", []byte("1container"))
	seen := map[uint64]string{}
	for _, name := range []string{"doc", "sgml", "data", "split"} {
		if other, dup := seen[digest(a, name)]; dup {
			t.Errorf("%s and %s share a digest", name, other)
		}
		seen[digest(a, name)] = name
	}
	if Digest("", nil) == 0 {
		t.Error("Digest of nothing is 0")
	}

	have := digest(a, "doc")
	_, _, before := a.Stats()
	same, err := a.RevalidateDocument("doc", have)
	if err != nil || same.Data != nil || same.Keywords != nil || same.Digest != have || same.Title != "Title" || same.Version != 1 {
		t.Errorf("RevalidateDocument(current digest) = %+v, %v; want the header alone", same, err)
	}
	if _, _, after := a.Stats(); after != before {
		t.Errorf("an unchanged answer moved %d bytes", after-before)
	}
	full, err := a.RevalidateDocument("doc", have^1)
	if err != nil || string(full.Data) != "container" || len(full.Keywords) != 1 {
		t.Errorf("RevalidateDocument(stale digest) = %+v, %v; want the whole record", full, err)
	}
	if _, err := a.RevalidateDocument("nope", have); !errors.Is(err, ErrNotFound) {
		t.Errorf("RevalidateDocument of a missing document: %v", err)
	}
}

// TestContentDigest: the digest names (Coding, Data) — the same under
// any ref, on any store, and the one a document of that encoding and
// data carries — is 0 for a ref that holds nothing, follows a put that
// replaces the record, and is the same after Save and Load, which write
// no digest into the image.
func TestContentDigest(t *testing.T) {
	digest := func(s *Store, ref string) uint64 {
		t.Helper()
		d, err := s.ContentDigest(ref)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := New(), New()
	a.PutContent("store/a.mpg", "mpeg", []byte("frames"), "video")
	b.PutContent("store/b.mpg", "mpeg", []byte("frames"))
	if digest(a, "store/a.mpg") != digest(b, "store/b.mpg") || digest(a, "store/a.mpg") == 0 {
		t.Errorf("equal coding and data digest to %#x and %#x", digest(a, "store/a.mpg"), digest(b, "store/b.mpg"))
	}
	b.PutDocument("doc", "Title", "mpeg", []byte("frames"))
	if doc, err := b.GetDocument("doc"); err != nil || doc.Digest != digest(b, "store/b.mpg") {
		t.Errorf("a document of the same encoding and data has digest %+v, %v", doc, err)
	}
	if d := digest(a, "store/none"); d != 0 {
		t.Errorf("a ref that holds nothing has digest %#x", d)
	}
	first := digest(a, "store/a.mpg")
	a.PutContent("store/a.mpg", "avi", []byte("frames"))
	if d := digest(a, "store/a.mpg"); d == first || d == 0 {
		t.Errorf("a put of another coding left the digest at %#x (was %#x)", d, first)
	}
	a.PutContent("store/a.mpg", "mpeg", []byte("frames"))
	if d := digest(a, "store/a.mpg"); d != first {
		t.Errorf("the first record put again digests to %#x, was %#x", d, first)
	}

	dir := t.TempDir()
	one := New()
	one.PutContent("store/v.mpg", "mpeg", []byte("vid"), "video")
	unasked, asked := filepath.Join(dir, "unasked.db"), filepath.Join(dir, "asked.db")
	if err := one.Save(unasked); err != nil {
		t.Fatal(err)
	}
	before := digest(one, "store/v.mpg")
	if err := one.Save(asked); err != nil {
		t.Fatal(err)
	}
	x, _ := os.ReadFile(unasked)
	y, _ := os.ReadFile(asked)
	if !bytes.Equal(x, y) {
		t.Errorf("asking the digest changed the saved image: %d bytes, then %d", len(x), len(y))
	}
	loaded, err := Load(asked)
	if err != nil {
		t.Fatal(err)
	}
	if after := digest(loaded, "store/v.mpg"); after != before {
		t.Errorf("digest %#x before Save, %#x after Load", before, after)
	}
}

// TestLoadStampsMissingDigests: an image saved before documents carried
// a digest loads with each document stamped as a fresh put would stamp it.
func TestLoadStampsMissingDigests(t *testing.T) {
	s := New()
	s.PutDocument("atm", "ATM", "asn1", []byte("docdata"), "network/atm")
	s.PutDocument("web", "Web", "sgml", []byte("<doc/>"))
	path := filepath.Join(t.TempDir(), "old.db")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, d := range snap.Docs {
		d.Digest = 0
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"atm", "web"} {
		rec, err := loaded.GetDocument(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh := New()
		fresh.PutDocument(name, rec.Title, rec.Encoding, rec.Data)
		want, _ := fresh.GetDocument(name)
		if rec.Digest != want.Digest {
			t.Errorf("%s loaded from a digest-less image with digest %#x, a fresh put stamps %#x", name, rec.Digest, want.Digest)
		}
	}
}

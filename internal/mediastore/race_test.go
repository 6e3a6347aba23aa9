package mediastore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSaveConcurrentWithPutDocument is the regression test for a data
// race mitslint's audit surfaced: Save used to collect the live
// *DocRecord pointers under the lock but gob-encode them after
// releasing it, while PutDocument updates records in place. Run with
// -race; before the fix the encoder read Data/Version while a writer
// replaced them.
func TestSaveConcurrentWithPutDocument(t *testing.T) {
	s := New()
	if _, err := s.PutDocument("course", "Title", "asn1", []byte("v1"), "networking"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutContent("store/intro", "mpeg", []byte("frames")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "image.gob")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			data := []byte(fmt.Sprintf("version %d payload", i))
			if _, err := s.PutDocument("course", "Title", "asn1", data, "networking"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if docs, contents := loaded.Sizes(); docs != 1 || contents != 1 {
		t.Errorf("loaded %d docs, %d contents; want 1, 1", docs, contents)
	}
}

// TestStoreConcurrentStress hammers every Store API from many
// goroutines at once — the content server of Fig 3.5 serves many
// navigator clients concurrently, so the store must hold up under
// -race with mixed readers and writers.
func TestStoreConcurrentStress(t *testing.T) {
	s := New()
	const workers = 8
	const iters = 200
	path := filepath.Join(t.TempDir(), "stress.gob")

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("doc-%d", w%4) // overlap names across workers
			ref := fmt.Sprintf("store/clip-%d", w%4)
			for i := 0; i < iters; i++ {
				data := []byte(fmt.Sprintf("worker %d iteration %d", w, i))
				if _, err := s.PutDocument(name, "T", "asn1", data, "networking/atm"); err != nil {
					t.Error(err)
					return
				}
				if err := s.PutContent(ref, "mpeg", data); err != nil {
					t.Error(err)
					return
				}
				if rec, err := s.GetDocument(name); err == nil {
					_ = len(rec.Data)
				}
				if rec, err := s.GetContent(ref); err == nil {
					_ = len(rec.Data)
				}
				s.DocsByKeyword("networking")
				s.ListDocuments()
				s.ContentDigest(ref)
				s.Stats()
				s.Sizes()
				if i%50 == 0 {
					if err := s.Save(path); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if docs, contents := s.Sizes(); docs != 4 || contents != 4 {
		t.Errorf("after stress: %d docs, %d contents; want 4, 4", docs, contents)
	}
}

// TestReadsShareTheReadLock: document and content reads take the read
// lock — they complete while another reader holds it — and their
// counters are atomics, so readers interleaved with PutDocument,
// PutContent and Stats lose no count (run with -race).
func TestReadsShareTheReadLock(t *testing.T) {
	s := New()
	if _, err := s.PutDocument("course", "Title", "asn1", []byte("edition 0"), "networking"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutContent("store/clip", "mpeg", []byte("frames 0")); err != nil {
		t.Fatal(err)
	}

	s.mu.RLock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.GetDocument("course")
		s.GetContentBorrow("store/clip")
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a read waited for another reader's lock")
	}
	s.mu.RUnlock()
	baseDocs, baseContent, baseBytes := s.Stats()

	const readers, iters = 4, 300
	var wg sync.WaitGroup
	var docReads, contentReads, bytesOut atomic.Int64
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.PutDocument("course", "Title", "asn1", []byte(fmt.Sprintf("edition %d", i)), "networking"); err != nil {
				t.Error(err)
			}
			if err := s.PutContent("store/clip", "mpeg", []byte(fmt.Sprintf("frames %d", i))); err != nil {
				t.Error(err)
			}
			s.Stats()
		}
	}()
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			var have uint64
			for i := 0; i < iters; i++ {
				doc, err := s.RevalidateDocument("course", have)
				if err != nil {
					t.Error(err)
					return
				}
				docReads.Add(1)
				bytesOut.Add(int64(len(doc.Data)))
				if r%2 == 0 {
					have = doc.Digest // odd readers always ask for the whole record
				}
				c, err := s.GetContentBorrow("store/clip")
				if err != nil {
					t.Error(err)
					return
				}
				contentReads.Add(1)
				bytesOut.Add(int64(len(c.Data)))
			}
		}(r)
	}
	rg.Wait()
	close(stop)
	wg.Wait()
	d, c, b := s.Stats()
	if d-baseDocs != docReads.Load() || c-baseContent != contentReads.Load() || b-baseBytes != bytesOut.Load() {
		t.Errorf("Stats moved by %d doc reads, %d content reads, %d bytes; the readers made %d, %d, %d",
			d-baseDocs, c-baseContent, b-baseBytes, docReads.Load(), contentReads.Load(), bytesOut.Load())
	}
}

// TestContentDigestNeverStale: ContentDigest beside a writer replacing
// one ref's record never answers with the digest of a record replaced
// before the ask began — a digest hashed from a record that a put
// replaced meanwhile goes back to its asker but is never kept.
func TestContentDigestNeverStale(t *testing.T) {
	s := New()
	const versions = 200
	data := make([][]byte, versions)
	version := make(map[uint64]int, versions) // digest → version
	for v := range data {
		data[v] = bytes.Repeat([]byte{byte(v), byte(v >> 8)}, 32<<10) // 64 KB: a put can land mid-hash
		version[Digest("mpeg", data[v])] = v
	}
	if err := s.PutContent("store/clip", "mpeg", data[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var done atomic.Int64 // the last version whose put has returned
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v < versions; v++ {
			if err := s.PutContent("store/clip", "mpeg", data[v]); err != nil {
				t.Error(err)
			}
			done.Store(int64(v))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for floor := int64(0); floor < versions-1; {
				floor = done.Load()
				d, err := s.ContentDigest("store/clip")
				v, ok := version[d]
				if err != nil || !ok || int64(v) < floor {
					t.Errorf("ContentDigest = %#x (version %d, known %v), %v, after version %d was put", d, v, ok, err, floor)
					return
				}
			}
		}()
	}
	wg.Wait()
}

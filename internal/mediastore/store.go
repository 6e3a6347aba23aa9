// Package mediastore implements the courseware database of §3.4.2 and
// the MEDIASTORE/MEDIAFILE components of the MEDIABASE platform
// (§5.1.1): an object store holding interchanged courseware (MHEG
// containers) and a separate content database holding the mono-media
// data that courseware objects reference.
//
// Storing content separately from scenario is a deliberate design
// choice of the paper — "reusability of the content objects is achieved
// among different applications ... while content objects of large size
// are transmitted only at the time they are requested" — and is what
// the E18 experiment quantifies.
package mediastore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mits/internal/obs"
)

// ErrNotFound is returned when a document or content object is absent.
var ErrNotFound = errors.New("mediastore: not found")

// DocRecord is one stored courseware document: a form (a) MHEG
// container plus catalogue metadata.
type DocRecord struct {
	Name     string
	Title    string
	Encoding string // interchange encoding of Data ("asn1" or "sgml")
	Keywords []string
	Version  int
	Data     []byte
	// Digest identifies (Encoding, Data): equal documents have equal
	// digests on every store, and it is never 0. PutDocument stamps it.
	Digest uint64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest identifies a document's (Encoding, Data) and a content
// object's (Coding, Data): CRC-32C ‖ CRC-32 (IEEE) of the encoding's
// length, the encoding and the data, mapped off 0, which means "no
// digest" to a reader. Both CRCs are hardware paths in hash/crc32:
// 1.2 µs for an 8 KB document, where a byte-at-a-time hash such as
// FNV-1a takes 14 µs (E42).
func Digest(encoding string, data []byte) uint64 {
	var buf [32]byte
	head := append(binary.AppendUvarint(buf[:0], uint64(len(encoding))), encoding...)
	c, i := crc32.Update(0, castagnoli, head), crc32.ChecksumIEEE(head)
	c, i = crc32.Update(c, castagnoli, data), crc32.Update(i, crc32.IEEETable, data)
	if d := uint64(c)<<32 | uint64(i); d != 0 {
		return d
	}
	return 1
}

// ContentRecord is one entry of the content database.
type ContentRecord struct {
	Ref      string // the reference courseware objects carry
	Coding   string
	Keywords []string
	Data     []byte
}

// Store is the courseware database. It is safe for concurrent use: the
// content server of Fig 3.5 serves many navigator clients at once.
//
// Aliasing contract: a put keeps the data and keywords slices it is
// handed, without a copy, and the caller must not write to them after
// the call. The store never writes into them either, so the bytes a
// reader sees change only when a later put replaces the slice.
type Store struct {
	mu       sync.RWMutex
	docs     map[string]*DocRecord
	content  map[string]*ContentRecord
	keywords *KeywordTree
	// digests holds ContentDigest's answers by ref: each is computed on
	// the first ask and dropped by the put that replaces its record.
	digests map[string]uint64

	// Stats for the experiments: atomics, so reads take the read lock.
	docReads     atomic.Int64
	contentReads atomic.Int64
	bytesOut     atomic.Int64

	// Cached obs instruments, set at construction (immutable —
	// increments need no store lock). All stores in a process share
	// the Default registry, which is what a content server wants: one
	// exposition covering its whole database.
	obsGetDoc, obsPutDoc, obsGetContent, obsPutContent             *obs.Histogram
	obsHits, obsMisses, obsBytes                                   *obs.Counter
	obsErrGetDoc, obsErrPutDoc, obsErrGetContent, obsErrPutContent *obs.Counter
	obsDocs, obsContents, obsKeywords                              *obs.Gauge
}

// New creates an empty store.
func New() *Store {
	return &Store{
		docs:     make(map[string]*DocRecord),
		content:  make(map[string]*ContentRecord),
		keywords: NewKeywordTree(),
		digests:  make(map[string]uint64),

		obsGetDoc:     obs.GetHistogram("mediastore_latency_ns", "op", "get_document"),
		obsPutDoc:     obs.GetHistogram("mediastore_latency_ns", "op", "put_document"),
		obsGetContent: obs.GetHistogram("mediastore_latency_ns", "op", "get_content"),
		obsPutContent: obs.GetHistogram("mediastore_latency_ns", "op", "put_content"),
		obsHits:       obs.GetCounter("mediastore_lookup_hits_total"),
		obsMisses:     obs.GetCounter("mediastore_lookup_misses_total"),
		// Per-op error counters: a rising get_* rate means dangling
		// references (a scenario naming content that was never put), a
		// rising put_* rate a misbehaving author tool.
		obsErrGetDoc:     obs.GetCounter("mediastore_errors_total", "op", "get_document"),
		obsErrPutDoc:     obs.GetCounter("mediastore_errors_total", "op", "put_document"),
		obsErrGetContent: obs.GetCounter("mediastore_errors_total", "op", "get_content"),
		obsErrPutContent: obs.GetCounter("mediastore_errors_total", "op", "put_content"),
		obsBytes:         obs.GetCounter("mediastore_bytes_out_total"),
		obsDocs:          obs.GetGauge("mediastore_documents"),
		obsContents:      obs.GetGauge("mediastore_content_objects"),
		obsKeywords:      obs.GetGauge("mediastore_keyword_index_nodes"),
	}
}

// PutDocument stores or updates a courseware document, bumping its
// version ("it can be updated in both the content and the scenario at
// anytime", §3.2). The record keeps data and keywords, not copies of
// them; the caller must not write to either afterwards.
func (s *Store) PutDocument(name, title, encoding string, data []byte, keywords ...string) (int, error) {
	if name == "" {
		s.obsErrPutDoc.Inc()
		return 0, fmt.Errorf("mediastore: document with empty name")
	}
	if len(data) == 0 {
		s.obsErrPutDoc.Inc()
		return 0, fmt.Errorf("mediastore: document %q with no data", name)
	}
	start := time.Now()
	defer func() { s.obsPutDoc.Observe(time.Since(start)) }()
	digest := Digest(encoding, data) // before the lock: readers do not wait for it
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.docs[name]
	if !ok {
		rec = &DocRecord{Name: name}
		s.docs[name] = rec
	} else {
		s.keywords.remove(name, rec.Keywords)
	}
	rec.Title = title
	rec.Encoding = encoding
	rec.Keywords = keywords
	rec.Data = data
	rec.Digest = digest
	rec.Version++
	s.keywords.add(name, keywords)
	s.obsDocs.Set(int64(len(s.docs)))
	s.obsKeywords.Set(int64(s.keywords.nodes))
	return rec.Version, nil
}

// GetDocument retrieves a document by name (the Get_Selected_Doc API of
// §5.3.2).
func (s *Store) GetDocument(name string) (*DocRecord, error) {
	return s.RevalidateDocument(name, 0)
}

// RevalidateDocument is GetDocument for a caller holding the document
// whose digest is have: while the stored one still has that digest the
// answer is the record without Data and Keywords, copied from nothing.
// Any other have (0 included) gets a private copy of the whole record.
func (s *Store) RevalidateDocument(name string, have uint64) (*DocRecord, error) {
	start := time.Now()
	defer func() { s.obsGetDoc.Observe(time.Since(start)) }()
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.docs[name]
	if !ok {
		s.obsMisses.Inc()
		s.obsErrGetDoc.Inc()
		return nil, fmt.Errorf("%w: document %q", ErrNotFound, name)
	}
	s.obsHits.Inc()
	s.docReads.Add(1)
	cp := *rec
	if rec.Digest == have {
		cp.Data, cp.Keywords = nil, nil
		return &cp, nil
	}
	s.obsBytes.Add(int64(len(rec.Data)))
	s.bytesOut.Add(int64(len(rec.Data)))
	cp.Data = append([]byte(nil), rec.Data...)
	cp.Keywords = append([]string(nil), rec.Keywords...)
	return &cp, nil
}

// ListDocuments returns the stored document names, sorted (the
// Get_List_Doc API of §5.3.2).
func (s *Store) ListDocuments() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.docs))
	for n := range s.docs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DeleteDocument removes a document.
func (s *Store) DeleteDocument(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.docs[name]
	if !ok {
		return fmt.Errorf("%w: document %q", ErrNotFound, name)
	}
	s.keywords.remove(name, rec.Keywords)
	delete(s.docs, name)
	s.obsDocs.Set(int64(len(s.docs)))
	s.obsKeywords.Set(int64(s.keywords.nodes))
	return nil
}

// DocsByKeyword returns names of documents carrying the keyword (the
// GetDocByKeyword API of §5.5). Keyword paths match by prefix:
// "network" finds documents tagged "network/atm".
func (s *Store) DocsByKeyword(keyword string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.keywords.Find(keyword)
}

// Keywords returns the keyword tree (the GetKeywordTree API of §5.5) and
// its tag: one snapshot, shared by every caller until the next publish.
func (s *Store) Keywords() (*KeywordNode, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.keywords.Snapshot()
}

// PutContent stores a mono-media object in the content database under
// the given reference. The record keeps data and keywords, not copies
// of them: a publish copies each produced object once, when it is
// encoded. The caller must not write to either afterwards.
// TestPutContentKeepsCallersBuffer pins this.
func (s *Store) PutContent(ref, coding string, data []byte, keywords ...string) error {
	if ref == "" {
		s.obsErrPutContent.Inc()
		return fmt.Errorf("mediastore: content with empty reference")
	}
	if len(data) == 0 {
		s.obsErrPutContent.Inc()
		return fmt.Errorf("mediastore: content %q with no data", ref)
	}
	start := time.Now()
	defer func() { s.obsPutContent.Observe(time.Since(start)) }()
	rec := &ContentRecord{Ref: ref, Coding: coding, Keywords: keywords, Data: data}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.content[ref] = rec
	delete(s.digests, ref)
	s.obsContents.Set(int64(len(s.content)))
	return nil
}

// ContentDigest identifies the content held at ref: the digest of its
// (Coding, Data), as a document's Digest is of its (Encoding, Data), so
// equal digests mean equal bytes on every store; 0 when nothing is held.
// It is computed on the first ask, outside the lock, and kept until a
// put replaces the record — not at the put, so a store that is never
// asked (every one that serves only reads) never hashes. The error is
// always nil here; it is there for the same question over the wire
// (transport.DBClient.ContentDigest).
func (s *Store) ContentDigest(ref string) (uint64, error) {
	s.mu.RLock()
	rec, held := s.content[ref]
	d, known := s.digests[ref]
	s.mu.RUnlock()
	if !held || known {
		return d, nil
	}
	d = Digest(rec.Coding, rec.Data)
	s.mu.Lock()
	if s.content[ref] == rec { // a put while hashing: its record is not rec's
		s.digests[ref] = d
	}
	s.mu.Unlock()
	return d, nil
}

// GetContent retrieves content data by reference.
//
// Aliasing audit (the record sits behind the navigator content cache,
// where a shared byte slice would let one caller corrupt what every
// other caller reads): the returned record is a deep copy — Data and
// Keywords are cloned, never views of the store's internal slices, so
// the caller may mutate it freely. Callers that only read (a server
// handler about to serialize the record onto the wire) should use
// GetContentBorrow and skip the copy.
// TestGetContentDataIsPrivateCopy pins this end.
func (s *Store) GetContent(ref string) (*ContentRecord, error) {
	rec, err := s.GetContentBorrow(ref)
	if err != nil {
		return nil, err
	}
	cp := *rec
	cp.Data = append([]byte(nil), rec.Data...)
	cp.Keywords = append([]string(nil), rec.Keywords...)
	return &cp, nil
}

// GetContentBorrow retrieves content by reference without copying: the
// returned record is the store's own, and its Data is the slice its
// put was handed. It is safe to read indefinitely — PutContent replaces
// records wholesale (fresh struct) and never mutates one in place, and
// no putter writes to what it handed over (the Store contract), so a
// borrowed record is immutable for its lifetime; a concurrent
// republish simply leaves the borrower reading the superseded
// snapshot. Borrowers must not write through it. This is the serving
// hot path: a multi-MB media object is read thousands of times per
// publish, and GetContent's defensive copy was pure allocator load
// when the caller immediately re-serializes.
// TestGetContentBorrowIsZeroCopy pins the no-copy end.
func (s *Store) GetContentBorrow(ref string) (*ContentRecord, error) {
	start := time.Now()
	defer func() { s.obsGetContent.Observe(time.Since(start)) }()
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.content[ref]
	if !ok {
		s.obsMisses.Inc()
		s.obsErrGetContent.Inc()
		return nil, fmt.Errorf("%w: content %q", ErrNotFound, ref)
	}
	s.obsHits.Inc()
	s.obsBytes.Add(int64(len(rec.Data)))
	s.contentReads.Add(1)
	s.bytesOut.Add(int64(len(rec.Data)))
	return rec, nil
}

// Stats reports served volume for the experiments.
func (s *Store) Stats() (docReads, contentReads, bytesOut int64) {
	return s.docReads.Load(), s.contentReads.Load(), s.bytesOut.Load()
}

// Sizes reports how many documents and content objects are stored.
func (s *Store) Sizes() (docs, contents int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs), len(s.content)
}

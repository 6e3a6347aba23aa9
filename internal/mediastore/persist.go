package mediastore

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mits/internal/obs"
)

// snapshotFile is the on-disk image of a store — MEDIAFILE's role of
// real-time physical storage is played by a single gob image, which is
// all the command-line tools need to hand a database between the
// producer, the author and the server.
type snapshotFile struct {
	Docs    []*DocRecord
	Content []*ContentRecord
}

// Save writes the store to path, creating parent directories.
//
// The snapshot copies record values while the lock is held: the
// encoder runs after the lock is released, and PutDocument updates
// records in place, so encoding the live pointers would race with
// concurrent writers. Field slices need no deep copy — writers always
// replace them with freshly-allocated slices, never mutate the backing
// arrays.
func (s *Store) Save(path string) error {
	start := time.Now()
	defer func() { obs.Observe("mediastore_latency_ns", time.Since(start), "op", "save") }()
	s.mu.RLock()
	snap := snapshotFile{}
	for _, d := range s.docs {
		cp := *d
		snap.Docs = append(snap.Docs, &cp)
	}
	for _, c := range s.content {
		cp := *c
		snap.Content = append(snap.Content, &cp)
	}
	s.mu.RUnlock()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("mediastore: save: %w", err)
	}
	// A unique temp name per Save: two concurrent saves to one path
	// must each rename their own complete image into place (last one
	// wins), not share a ".tmp" that one renames away underneath the
	// other's rename.
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("mediastore: save: %w", err)
	}
	tmp := f.Name()
	if err := gob.NewEncoder(f).Encode(snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("mediastore: save: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("mediastore: save: %w", err)
	}
	return os.Rename(tmp, path)
}

// Load reads a store image written by Save. An image saved before
// documents carried a digest gets each one stamped here.
func Load(path string) (*Store, error) {
	start := time.Now()
	defer func() { obs.Observe("mediastore_latency_ns", time.Since(start), "op", "load") }()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mediastore: load: %w", err)
	}
	defer f.Close()
	var snap snapshotFile
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("mediastore: load %s: %w", path, err)
	}
	s := New()
	for _, d := range snap.Docs {
		if d.Digest == 0 {
			d.Digest = Digest(d.Encoding, d.Data)
		}
		s.docs[d.Name] = d
		s.keywords.add(d.Name, d.Keywords)
	}
	for _, c := range snap.Content {
		s.content[c.Ref] = c
	}
	s.obsDocs.Set(int64(len(s.docs)))
	s.obsContents.Set(int64(len(s.content)))
	s.obsKeywords.Set(int64(s.keywords.nodes))
	return s, nil
}

package school

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
)

// snapshot is the on-disk image of a school: student records survive
// server restarts so a returning student's number, enrollments, resume
// positions and balance are still there (§5.2.1's administration data).
type snapshot struct {
	Name       string
	Students   []*Student
	Courses    []*Course
	NextNumber int
	Fees       map[string]Fee
	Payments   map[string]int
}

// Save writes the school to path atomically.
func (s *School) Save(path string) error {
	s.mu.RLock()
	snap := snapshot{
		Name:       s.name,
		NextNumber: s.nextNumber,
		Fees:       make(map[string]Fee, len(s.fees)),
		Payments:   make(map[string]int, len(s.payments)),
	}
	for _, st := range s.students {
		cp := copyStudent(st)
		snap.Students = append(snap.Students, &cp)
	}
	for _, c := range s.courses {
		cc := *c
		snap.Courses = append(snap.Courses, &cc)
	}
	for k, v := range s.fees {
		snap.Fees[k] = v
	}
	for k, v := range s.payments {
		snap.Payments[k] = v
	}
	s.mu.RUnlock()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("school: save: %w", err)
	}
	// A unique temp name per Save: two concurrent saves to one path
	// must each rename their own complete image into place (last one
	// wins), not share a ".tmp" that one renames away underneath the
	// other's rename.
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("school: save: %w", err)
	}
	tmp := f.Name()
	if err := gob.NewEncoder(f).Encode(snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("school: save: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("school: save: %w", err)
	}
	return os.Rename(tmp, path)
}

// Load reads a school image written by Save.
func Load(path string) (*School, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("school: load: %w", err)
	}
	defer f.Close()
	var snap snapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("school: load %s: %w", path, err)
	}
	s := New(snap.Name)
	s.nextNumber = snap.NextNumber
	for _, st := range snap.Students {
		cp := copyStudent(st)
		s.students[st.Number] = &cp
	}
	for _, c := range snap.Courses {
		cc := *c
		s.courses[c.Code] = &cc
	}
	if len(snap.Fees) > 0 {
		s.fees = snap.Fees
	}
	if len(snap.Payments) > 0 {
		s.payments = snap.Payments
	}
	return s, nil
}

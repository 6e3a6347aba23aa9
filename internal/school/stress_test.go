package school

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mits/internal/lint/leaktest"
)

// TestSchoolConcurrentStress exercises the administration APIs from
// many goroutines at once — registration, enrolment, session
// recording, catalogue browsing and statistics all share one mutex,
// and §3.4.1's school server handles every navigator in parallel. Run
// with -race.
func TestSchoolConcurrentStress(t *testing.T) {
	leaktest.Check(t)
	s := testSchool(t)
	const workers = 8
	const iters = 100

	var wg sync.WaitGroup
	numbers := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				num, err := s.Register(Profile{
					Name:  fmt.Sprintf("Student %d-%d", w, i),
					Email: fmt.Sprintf("s%d-%d@uottawa.ca", w, i),
				})
				if err != nil {
					t.Error(err)
					return
				}
				numbers[w] = append(numbers[w], num)
				if err := s.Enroll(num, "ELG5121"); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.RecordSession(num, "ELG5121", Position{}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Student(num); err != nil {
					t.Error(err)
					return
				}
				if err := s.Enroll(num, "NOPE101"); !errors.Is(err, ErrNotFound) {
					t.Errorf("ghost course enrolment err=%v", err)
					return
				}
				s.Stats()
			}
		}(w)
	}
	wg.Wait()

	// Student numbers must be unique across all concurrent registrations.
	seen := make(map[string]bool)
	for _, batch := range numbers {
		for _, num := range batch {
			if seen[num] {
				t.Fatalf("duplicate student number %s issued concurrently", num)
			}
			seen[num] = true
		}
	}
	if want := workers * iters; len(seen) != want {
		t.Errorf("registered %d students, want %d", len(seen), want)
	}
	stats := s.Stats()
	if stats.Students != workers*iters {
		t.Errorf("stats report %d students, want %d", stats.Students, workers*iters)
	}
}

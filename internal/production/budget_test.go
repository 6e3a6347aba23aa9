//go:build !race

package production

import (
	"runtime"
	"testing"

	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/mediastore"
)

// TestProduceForCourseAllocBudget: producing the sample ATM course into
// a local store allocates each object once — the encoder's buffer,
// which the store keeps — plus a little bookkeeping. A store that
// cloned what it is handed doubles the figure. The Center is a fresh
// one, which remembers nothing and so produces every object: one that
// had produced the course before would skip them all and leave nothing
// to measure. Built without -race, whose instrumentation allocates on
// its own account.
func TestProduceForCourseAllocBudget(t *testing.T) {
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	store := mediastore.New()
	runtime.ReadMemStats(&before)
	refs, err := (&Center{}).ProduceForCourse(out.Container, store)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	produced := 0
	for _, ref := range refs {
		rec, err := store.GetContentBorrow(ref)
		if err != nil {
			t.Fatal(err)
		}
		produced += len(rec.Data)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if ratio := float64(allocated) / float64(produced); ratio > 1.1 {
		t.Errorf("one production walk allocated %d B for %d B of media (×%.2f), want ≤ ×1.1", allocated, produced, ratio)
	}
}

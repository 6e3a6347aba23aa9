package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty series should report zeros")
	}
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Errorf("N=%d, want 4", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean=%v, want 5", s.Mean())
	}
	if s.Percentile(0) != 2 || s.Max() != 8 {
		t.Errorf("p0/Max=%v/%v, want 2/8", s.Percentile(0), s.Max())
	}
}

func TestSeriesPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Errorf("p50=%v, want 50", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Errorf("p99=%v, want 99", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100=%v, want 100", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0=%v, want 1", got)
	}
}

func TestSeriesAddAfterSort(t *testing.T) {
	var s Series
	s.Add(5)
	_ = s.Max() // forces a sort
	s.Add(1)
	if s.Percentile(0) != 1 {
		t.Errorf("p0=%v after post-sort Add, want 1", s.Percentile(0))
	}
}

// Property: percentile results are always actual samples and p0 ≤ p ≤ Max.
func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(vals []float64, p uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var s Series
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pct := float64(p % 101)
		got := s.Percentile(pct)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		found := false
		for _, v := range sorted {
			if v == got {
				found = true
				break
			}
		}
		return found && got >= s.Percentile(0) && got <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10)=%d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64=%v out of [0,1)", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(1)
	var s Series
	for i := 0; i < 20000; i++ {
		s.Add(r.Exp(100))
	}
	if m := s.Mean(); math.Abs(m-100) > 5 {
		t.Errorf("Exp mean=%v, want ≈100", m)
	}
}

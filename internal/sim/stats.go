package sim

import (
	"math"
	"sort"
	"time"
)

// Series accumulates scalar samples (latencies, sizes) and reports
// summary statistics. The zero value is ready to use.
type Series struct {
	samples []float64
	sum     float64
	sorted  bool
}

// Add records one sample.
func (s *Series) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
	s.sorted = false
}

// AddDuration records a duration sample in nanoseconds.
func (s *Series) AddDuration(d time.Duration) { s.Add(float64(d)) }

// N reports the sample count.
func (s *Series) N() int { return len(s.samples) }

// Mean reports the arithmetic mean, or 0 with no samples.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Max reports the largest sample, or 0 with no samples.
func (s *Series) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[len(s.samples)-1]
}

// Percentile reports the p-th percentile (0..100) by nearest-rank.
func (s *Series) Percentile(p float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	rank := int(math.Ceil(p/100*float64(len(s.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.samples) {
		rank = len(s.samples) - 1
	}
	return s.samples[rank]
}

func (s *Series) sort() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

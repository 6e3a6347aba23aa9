package bench

import (
	"math"
	"sort"
)

// percentile reports the p-th percentile (0 ≤ p ≤ 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the sample
// at or below it. Nearest rank never invents a value that was not
// measured, which keeps a p50 over bimodal latencies (cache hit vs
// round trip) on one of the two modes. An empty sample reports 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median reports the middle of vs (mean of the two middles when even),
// without reordering the caller's slice. An empty sample reports 0.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// Value is one reported metric: the median over repetitions with the
// extremes and the repetition count beside it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// overReps folds one metric's per-repetition values into a Value.
func overReps(unit string, reps []float64) Value {
	v := Value{Unit: unit, N: len(reps), Value: median(reps)}
	for i, r := range reps {
		if i == 0 || r < v.Min {
			v.Min = r
		}
		if i == 0 || r > v.Max {
			v.Max = r
		}
	}
	return v
}

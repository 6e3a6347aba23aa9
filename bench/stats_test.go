package bench

import "testing"

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 99, 7},
		{"p0 is the minimum", ten, 0, 1},
		{"p50 of ten is the fifth", ten, 50, 5},
		{"p90 of ten is the ninth", ten, 90, 9},
		{"p95 of ten rounds up to the tenth", ten, 95, 10},
		{"p100 is the maximum", ten, 100, 10},
		{"bimodal p50 stays on a mode", []float64{1, 1, 1, 100, 100}, 50, 1},
		{"bimodal p61 moves to the other", []float64{1, 1, 1, 100, 100}, 61, 100},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
}

func TestMedianOverReps(t *testing.T) {
	for _, tc := range []struct {
		name string
		reps []float64
		want Value
	}{
		{"none", nil, Value{Unit: "us"}},
		{"one", []float64{4}, Value{Value: 4, Unit: "us", N: 1, Min: 4, Max: 4}},
		{"odd, unsorted", []float64{9, 1, 5}, Value{Value: 5, Unit: "us", N: 3, Min: 1, Max: 9}},
		{"even takes the mean of the middles", []float64{4, 1, 3, 2}, Value{Value: 2.5, Unit: "us", N: 4, Min: 1, Max: 4}},
		{"an outlier repetition does not move it", []float64{10, 11, 12, 500, 9}, Value{Value: 11, Unit: "us", N: 5, Min: 9, Max: 500}},
	} {
		if got := overReps("us", tc.reps); got != tc.want {
			t.Errorf("%s: overReps(%v) = %+v, want %+v", tc.name, tc.reps, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestToUnit(t *testing.T) {
	if got := toUnit(1.5, "ms", "us"); got != 1500 {
		t.Errorf("1.5 ms = %v us, want 1500", got)
	}
	if got := toUnit(7, "1/s", "1/s"); got != 7 {
		t.Errorf("a rate must pass through unchanged, got %v", got)
	}
	if got := toUnit(7, "MB/s", "1/s"); got != 7 {
		t.Errorf("units that are not times must pass through unchanged, got %v", got)
	}
}

package bench

import (
	"bytes"
	"strings"
	"testing"
)

func val(v, lo, hi float64) Value { return Value{Value: v, Min: lo, Max: hi, N: 5} }

func TestJudge(t *testing.T) {
	lower := Metric{Name: "op_us_p50", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	rate := Metric{Name: "failed_share", Better: "lower", Bound: 0.001, Abs: true}
	for _, tc := range []struct {
		name       string
		m          Metric
		base, next Value
		want       string
	}{
		{"equal", lower, val(100, 95, 105), val(100, 95, 105), "ok"},
		{"better", lower, val(100, 95, 105), val(50, 45, 55), "ok"},
		{"worse but inside the bound", lower, val(100, 95, 105), val(109, 108, 110), "ok"},
		{"worse, runs apart", lower, val(100, 95, 105), val(120, 115, 125), "worse"},
		{"worse, runs overlap", lower, val(100, 80, 130), val(120, 100, 140), "unresolved"},
		{"throughput fell, runs apart", higher, val(1000, 990, 1010), val(800, 790, 810), "worse"},
		{"throughput fell inside the bound", higher, val(1000, 990, 1010), val(950, 940, 960), "ok"},
		{"throughput fell, runs overlap", higher, val(1000, 850, 1010), val(880, 840, 900), "unresolved"},
		{"a zero rate stays zero", rate, val(0, 0, 0), val(0, 0, 0), "ok"},
		{"a zero rate rises within its absolute bound", rate, val(0, 0, 0), val(0.0005, 0.0005, 0.0005), "ok"},
		{"a zero rate rises past it", rate, val(0, 0, 0), val(0.01, 0.01, 0.01), "worse"},
	} {
		if got := judge(tc.m, tc.base, tc.next); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	base := &Report{Results: []*Result{{Workload: BrowseHot, EndToEnd: map[string]Value{
		"ops_per_s": val(1000, 990, 1010), "op_us_p50": val(1, 0.9, 1.1),
	}}}}
	same := &Report{Results: []*Result{{Workload: BrowseHot, EndToEnd: map[string]Value{
		"ops_per_s": val(1005, 995, 1015), "op_us_p50": val(1.02, 0.9, 1.1),
	}}}}
	slow := &Report{Results: []*Result{{Workload: BrowseHot, EndToEnd: map[string]Value{
		"ops_per_s": val(500, 490, 510), "op_us_p50": val(1, 0.9, 1.1),
	}}}}
	var out bytes.Buffer
	if Compare(&out, base, same) {
		t.Errorf("an A/A pair was judged worse:\n%s", out.String())
	}
	out.Reset()
	if !Compare(&out, base, slow) {
		t.Errorf("halved throughput was not judged worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "0.500") {
		t.Errorf("the table must give each ratio with its base:\n%s", out.String())
	}
}

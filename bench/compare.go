package bench

import (
	"fmt"
	"io"
	"math"
)

// Compare prints, for every (workload, end-to-end metric) the two
// reports share, the ratio of b to a with its base, and judges it
// against the metric's bound:
//
//	ok          b is no worse than a by more than the bound
//	worse       it is, and the repetitions of the two runs do not overlap
//	unresolved  it is, but the runs' own spread (min..max over
//	            repetitions) overlaps, so the difference may be noise
//
// It reports whether any pair was worse.
func Compare(out io.Writer, a, b *Report) (worse bool) {
	fmt.Fprintf(out, "%-12s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, ra := range a.Results {
		var rb *Result
		for _, r := range b.Results {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		for _, m := range EndToEnd {
			va, oka := ra.EndToEnd[m.Name]
			vb, okb := rb.EndToEnd[m.Name]
			if !oka || !okb {
				continue
			}
			verdict := judge(m, va, vb)
			if verdict == "worse" {
				worse = true
			}
			bound := fmt.Sprintf("%.0f%%", m.Bound*100)
			if m.Abs {
				bound = fmt.Sprintf("+%g", m.Bound)
			}
			fmt.Fprintf(out, "%-12s %-20s %14.4f %14.4f %8.3f %7s  %s\n",
				ra.Workload, m.Name, va.Value, vb.Value, ratio(vb.Value, va.Value), bound, verdict)
		}
	}
	return worse
}

// judge applies one metric's bound to a base and a new value.
func judge(m Metric, base, next Value) string {
	// worsening > 0 means next is worse than base.
	worsening := next.Value - base.Value
	overlap := next.Min <= base.Max
	if m.Better == "higher" {
		worsening = -worsening
		overlap = next.Max >= base.Min
	}
	allowed := m.Bound
	if !m.Abs {
		allowed *= math.Abs(base.Value)
	}
	switch {
	case worsening <= allowed:
		return "ok"
	case overlap:
		return "unresolved"
	}
	return "worse"
}

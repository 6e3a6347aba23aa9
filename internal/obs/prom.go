package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// This file renders the registry in the Prometheus text exposition
// format (version 0.0.4), served at /metrics — the registry's one
// exposition. It groups series into metric families with # TYPE
// headers, escapes label values per the format's rules, and expands
// each histogram into cumulative le-buckets plus _sum and _count — what
// an off-the-shelf Prometheus server scrapes without an adapter.
//
// Convention: every histogram in this codebase is a *_ns latency
// histogram, so bucket bounds, _sum values and le labels are integral
// nanoseconds (not the Prometheus-conventional seconds). The metric
// names carry the _ns suffix, which keeps the unit explicit.

// promEscape renders a label value with the text-format escapes:
// backslash, double quote and newline.
func promEscape(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// promLabels renders alternating key/value pairs (plus any extra
// pre-rendered pairs such as le="...") into {k="v",...}, or "" when
// there are none.
func promLabels(labels []string, extra ...string) string {
	if len(labels) < 2 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := 0; i+1 < len(labels); i += 2 {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(promEscape(labels[i+1]))
		b.WriteByte('"')
	}
	for _, kv := range extra {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(kv)
	}
	b.WriteByte('}')
	return b.String()
}

// promFamily groups same-base metrics so each family gets exactly one
// # TYPE line (the full-name sort order interleaves bases: "foo_bar"
// sorts between "foo" and "foo{...}").
func promFamily[M interface{ Base() string }](metrics []M) (bases []string, byBase map[string][]M) {
	byBase = make(map[string][]M)
	for _, m := range metrics {
		base := m.Base()
		if _, seen := byBase[base]; !seen {
			bases = append(bases, base)
		}
		byBase[base] = append(byBase[base], m)
	}
	sort.Strings(bases)
	return bases, byBase
}

// WriteProm renders the registry in the Prometheus text format. Output
// is deterministic: families sorted by name, series within a family by
// their full rendered name (the listers' order). When SetSite named the
// site, the first line is the comment "# mits exposition site=<site>"
// (a # line that is not HELP or TYPE is a comment in the format), so a
// scrape says which process it came from.
func (r *Registry) WriteProm(w io.Writer) error {
	if site := r.Site(); site != "" {
		if _, err := fmt.Fprintf(w, "# mits exposition site=%s\n", site); err != nil {
			return err
		}
	}
	cBases, counters := promFamily(r.Counters())
	for _, base := range cBases {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
			return err
		}
		for _, c := range counters[base] {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", base, promLabels(c.Labels()), c.Value()); err != nil {
				return err
			}
		}
	}
	gBases, gauges := promFamily(r.Gauges())
	for _, base := range gBases {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
			return err
		}
		for _, g := range gauges[base] {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", base, promLabels(g.Labels()), g.Value()); err != nil {
				return err
			}
		}
	}
	hBases, hists := promFamily(r.Histograms())
	for _, base := range hBases {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
			return err
		}
		for _, h := range hists[base] {
			if err := writePromHist(w, base, h); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHist expands one histogram into cumulative le-bucket series
// plus _sum and _count. Empty buckets are elided (25 fixed buckets ×
// every labelled series would dominate the scrape); the +Inf bucket is
// always present, as the format requires.
func writePromHist(w io.Writer, base string, h *Histogram) error {
	cum := int64(0)
	for i := 0; i < NumBuckets(); i++ {
		n := h.BucketCount(i)
		if n == 0 {
			continue
		}
		cum += n
		le := fmt.Sprintf(`le="%d"`, int64(BucketBound(i)))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, promLabels(h.Labels(), le), cum); err != nil {
			return err
		}
	}
	cum += h.BucketCount(NumBuckets())
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, promLabels(h.Labels(), `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, promLabels(h.Labels()), int64(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, promLabels(h.Labels()), h.Count())
	return err
}

// PromHandler returns the HTTP handler serving the Prometheus text
// exposition — mounted at /metrics by ServeStats.
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w) // a scraper that hung up mid-read is its own problem
	})
}

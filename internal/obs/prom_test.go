package obs

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// promTestRegistry builds a registry whose exposition exercises every
// rendering path: an unlabelled and a labelled counter in one family
// (one TYPE line), a gauge, and a labelled histogram with samples in
// distinct buckets plus one overflow. The labelled counter's path
// value carries all three escapable characters.
func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("requests_total").Add(3)
	r.Counter("requests_total", "method", "get", "path", "/a\"b\\c\nd").Add(7)
	r.Gauge("queue_depth").Set(5)
	h := r.Histogram("rpc_ns", "site", "store")
	h.Observe(500 * time.Nanosecond)  // bucket le=1000
	h.Observe(1500 * time.Nanosecond) // bucket le=2000
	h.Observe(5 * time.Millisecond)   // bucket le=8192000
	h.Observe(20 * time.Second)       // overflow → +Inf only
	return r
}

func TestWritePromGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/prom_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := promTestRegistry().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("prometheus exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPromHandler also pins the site line: once SetSite names the
// process, the exposition opens with a comment saying which site a
// scrape came from (the golden's unnamed registry writes none).
func TestPromHandler(t *testing.T) {
	r := promTestRegistry()
	r.SetSite("testsite")
	rec := httptest.NewRecorder()
	r.PromHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want prometheus text format", ct)
	}
	if want := "# mits exposition site=testsite\n# TYPE requests_total counter\n"; !strings.HasPrefix(rec.Body.String(), want) {
		t.Errorf("body does not open with the site line, then the first TYPE line:\n%s", rec.Body.String())
	}
}

// The span_ns family produced by Span.End must render as a well-formed
// histogram family: one TYPE line even with several (name, kind) series.
func TestPromSpanFamilySingleTypeLine(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("db.Get_Selected_Doc", "client").End(nil)
	r.StartSpan("db.Get_Selected_Doc", "server").End(nil)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "# TYPE span_ns histogram"); n != 1 {
		t.Errorf("span_ns TYPE lines = %d, want 1\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), `span_ns_count{span="db.Get_Selected_Doc",kind="client"} 1`) {
		t.Errorf("missing client span series:\n%s", b.String())
	}
}

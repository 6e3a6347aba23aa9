package obs_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/obs/spantest"
	"mits/internal/transport"
)

// TestHistogramBucketBoundaries pins the `le` (inclusive upper bound)
// bucket semantics: an observation exactly on a bound lands in that
// bound's bucket, one nanosecond above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("b")
	for i := 0; i < obs.NumBuckets(); i++ {
		h.Observe(obs.BucketBound(i))
	}
	for i := 0; i < obs.NumBuckets(); i++ {
		if got := h.BucketCount(i); got != 1 {
			t.Errorf("bucket %d (le %v): count %d, want 1", i, obs.BucketBound(i), got)
		}
	}

	h2 := r.Histogram("b2")
	for i := 0; i < obs.NumBuckets(); i++ {
		h2.Observe(obs.BucketBound(i) + 1)
	}
	if got := h2.BucketCount(0); got != 0 {
		t.Errorf("bound+1ns stayed in bucket 0 (count %d)", got)
	}
	// The observation above the last finite bound must land in overflow.
	if got := h2.BucketCount(obs.NumBuckets()); got != 1 {
		t.Errorf("overflow bucket count %d, want 1", got)
	}

	// Zero and negative observations both belong to the first bucket.
	h3 := r.Histogram("b3")
	h3.Observe(0)
	h3.Observe(-time.Second)
	if got := h3.BucketCount(0); got != 2 {
		t.Errorf("zero/negative observations in bucket 0: %d, want 2", got)
	}
	if h3.Sum() != 0 {
		t.Errorf("negative observation corrupted sum: %v", h3.Sum())
	}
}

// TestHistogramQuantiles checks the interpolated percentiles are
// ordered, bracketed by the owning bucket, and zero on empty.
func TestHistogramQuantiles(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("q")
	if s := h.Snapshot(); s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || s.Count != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", s)
	}
	// 100 observations of ~1.5µs: every percentile must sit in the
	// (1µs, 2µs] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Nanosecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d, want 100", s.Count)
	}
	for _, p := range []time.Duration{s.P50, s.P95, s.P99} {
		if p <= time.Microsecond || p > 2*time.Microsecond {
			t.Errorf("percentile %v outside owning bucket (1µs, 2µs]", p)
		}
	}
	if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Errorf("percentiles unordered: %v %v %v", s.P50, s.P95, s.P99)
	}
}

// TestConcurrentCounters hammers one counter and one histogram from
// many goroutines; run under -race this is the data-race gate, and the
// final counts must be exact (atomics lose nothing).
func TestConcurrentCounters(t *testing.T) {
	r := obs.NewRegistry()
	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve by name every time: the lookup path is shared state
			// too.
			for i := 0; i < each; i++ {
				r.Counter("hits", "shard", "s1").Inc()
				r.Gauge("depth").Set(int64(i))
				r.Histogram("lat").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits", "shard", "s1").Value(); got != workers*each {
		t.Errorf("counter lost increments: %d, want %d", got, workers*each)
	}
	if got := r.Gauge("depth").Value(); got != each-1 {
		t.Errorf("gauge = %d after every worker's last set, want %d", got, each-1)
	}
	if got := r.Histogram("lat").Count(); got != workers*each {
		t.Errorf("histogram lost observations: %d, want %d", got, workers*each)
	}
}

// TestMetricNames checks label rendering and identity: same
// name+labels, same instrument.
func TestMetricNames(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("rpcs", "method", "get", "site", "db")
	if a.Name() != `rpcs{method="get",site="db"}` {
		t.Errorf("rendered name %q", a.Name())
	}
	if b := r.Counter("rpcs", "method", "get", "site", "db"); a != b {
		t.Error("same name+labels produced distinct counters")
	}
	if c := r.Counter("rpcs", "method", "put", "site", "db"); a == c {
		t.Error("different labels produced the same counter")
	}
	// A dangling label key degrades to the bare name, never panics.
	if d := r.Counter("odd", "key"); d.Name() != "odd" {
		t.Errorf("odd labels rendered %q", d.Name())
	}
}

// TestSpanIDsDistinctAcrossRegistries is the regression for
// per-registry sequential span IDs: a trace's spans come from several
// processes, each with its own registry, and the collector dedupes
// within a trace by span ID — two fresh registries minting the same
// first ID would silently merge distinct spans and mislink the tree.
func TestSpanIDsDistinctAcrossRegistries(t *testing.T) {
	a := obs.NewRegistry().StartSpan("op", "client")
	b := obs.NewRegistry().StartSpan("op", "client")
	a.End(nil)
	b.End(nil)
	if a.ID == 0 || b.ID == 0 {
		t.Fatal("span ID zero collides with the frame header's no-trace sentinel")
	}
	if a.ID == b.ID {
		t.Fatalf("two fresh registries minted the same span ID %s", a.ID)
	}
}

// TestSpans covers trace identity, parentage, idempotent End,
// ContinueSpan on an untraced peer and the inert nil span, reading the
// finished spans through the registry's sink.
func TestSpans(t *testing.T) {
	r := obs.NewRegistry()
	rec := spantest.Record(t, r)
	client := r.StartSpan("db.Get_Selected_Doc", "client")
	if client.Trace == 0 || client.ID == 0 {
		t.Fatalf("span minted zero IDs: %+v", client)
	}
	server := r.ContinueSpan("db.Get_Selected_Doc", "server", client.Trace, client.ID)
	if server.Trace != client.Trace {
		t.Errorf("server joined trace %s, want %s", server.Trace, client.Trace)
	}
	if server.Parent != client.ID {
		t.Errorf("server parent %s, want %s", server.Parent, client.ID)
	}
	server.End(nil)
	client.End(nil)
	client.End(nil) // second End must not double-record

	if spans := rec.Of(client.Trace); len(spans) != 2 || spans[0] != server || spans[1] != client {
		t.Fatalf("sink saw %+v, want the server then the client span once each", spans)
	}
	if h := r.Histogram("span_ns", "span", "db.Get_Selected_Doc", "kind", "client"); h.Count() != 1 {
		t.Errorf("client span histogram count %d, want 1", h.Count())
	}

	// A zero trace in ContinueSpan (untraced peer) starts a new trace.
	fresh := r.ContinueSpan("m", "server", 0, 0)
	if fresh.Trace == 0 {
		t.Error("ContinueSpan with zero trace minted no trace")
	}

	// A nil span (untraced request path) must be inert.
	var nilSpan *obs.Span
	nilSpan.End(nil)
	if n := len(rec.Of(0)); n != 2 {
		t.Errorf("sink saw %d spans after the inert ones, want 2", n)
	}
}

// TestLogger checks the structured logger carries component and site
// and respects the dynamic level.
func TestLogger(t *testing.T) {
	r := obs.NewRegistry()
	var buf bytes.Buffer
	r.SetLogOutput(&buf)
	r.SetSite("navsite")

	r.Logger("engine").Info("suppressed below default level")
	if buf.Len() != 0 {
		t.Fatalf("Info logged at default Warn level: %q", buf.String())
	}
	r.Logger("engine").Warn("object rejected", "id", "x/1")
	out := buf.String()
	for _, want := range []string{"component=engine", "site=navsite", "object rejected", "id=x/1"} {
		if !strings.Contains(out, want) {
			t.Errorf("log record lacks %q: %q", want, out)
		}
	}
}

// TestServeStatsServesExposition scrapes /metrics after one
// Get_Selected_Doc over a real TCP server: the site comment comes
// first, the RPC's client and server histograms carry a non-zero
// _count, the store's get_document histogram reports ordered positive
// percentiles, and the mount hook's route is served beside /metrics.
func TestServeStatsServesExposition(t *testing.T) {
	prev := obs.Default.Site()
	obs.SetSite("obs-test")
	t.Cleanup(func() { obs.SetSite(prev) })

	store := mediastore.New()
	if _, err := store.PutDocument("atm-course", "ATM", "asn1", []byte("course-bytes"), "network/atm"); err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	srv := transport.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := (transport.DBClient{C: cli}).GetSelectedDoc("atm-course", 0); err != nil {
		t.Fatal(err)
	}

	s, err := obs.ServeStats("127.0.0.1:0", func(mux *http.ServeMux) {
		mux.HandleFunc("/extra", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "mounted") })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.HasPrefix(metrics, "# mits exposition site=obs-test\n") {
		t.Errorf("/metrics does not open with the site comment:\n%.200s", metrics)
	}
	for _, series := range []string{
		`transport_client_latency_ns_count{method="db.Get_Selected_Doc"} `,
		`transport_server_latency_ns_count{method="db.Get_Selected_Doc"} `,
		`mediastore_latency_ns_count{op="get_document"} `,
	} {
		i := strings.Index(metrics, series)
		if i < 0 || strings.HasPrefix(metrics[i+len(series):], "0\n") {
			t.Errorf("/metrics lacks a non-zero %s", series)
		}
	}
	if snap := obs.GetHistogram("mediastore_latency_ns", "op", "get_document").Snapshot(); snap.P50 <= 0 || snap.P95 < snap.P50 || snap.P99 < snap.P95 {
		t.Errorf("get_document percentiles not positive and ordered: %+v", snap)
	}
	if got := get("/extra"); got != "mounted" {
		t.Errorf("/extra = %q, want the mount hook's route", got)
	}
	get("/healthz")
}

package collect

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mits/internal/lint/leaktest"
	"mits/internal/obs"
	"mits/internal/transport"
)

// captureClient records obs.Export payloads.
type captureClient struct {
	mu      sync.Mutex
	batches []Batch
	fail    bool
}

func (c *captureClient) Call(method string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail {
		return nil, errors.New("collector unreachable")
	}
	if method != transport.MethodObsExport {
		return nil, fmt.Errorf("unexpected method %s", method)
	}
	b, err := decodeBatch(payload)
	if err != nil {
		return nil, err
	}
	c.batches = append(c.batches, b)
	return nil, nil
}

func (c *captureClient) Close() error { return nil }

func (c *captureClient) spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []SpanRecord
	for _, b := range c.batches {
		out = append(out, b.Spans...)
	}
	return out
}

func TestExporterShipsFinishedSpans(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetSite("navigator")
	cap := &captureClient{}
	e := StartExporter(reg, cap, ExporterOptions{})
	defer e.Close()

	sp := reg.StartSpan("db.GetContent", "client")
	sp.End(nil)
	reg.StartSpan("db.Get_List_Doc", "client").End(errors.New("boom"))
	e.Flush()

	spans := cap.spans()
	if len(spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(spans))
	}
	if spans[0].Trace != uint64(sp.Trace) {
		t.Errorf("span[0] = %+v, want trace %x", spans[0], uint64(sp.Trace))
	}
	if spans[0].Site != "" {
		t.Errorf("record Site = %q on the wire, want blank (batch header carries it)", spans[0].Site)
	}
	cap.mu.Lock()
	if got := cap.batches[0].Site; got != "navigator" {
		t.Errorf("Batch.Site = %q, want navigator", got)
	}
	cap.mu.Unlock()
	if spans[1].Err != "boom" {
		t.Errorf("span[1].Err = %q, want boom", spans[1].Err)
	}
}

func TestExporterFiltersOwnExportSpans(t *testing.T) {
	reg := obs.NewRegistry()
	cap := &captureClient{}
	e := StartExporter(reg, cap, ExporterOptions{})
	defer e.Close()

	reg.StartSpan(transport.MethodObsExport, "client").End(nil)
	reg.StartSpan("db.GetContent", "client").End(nil)
	e.Flush()

	for _, s := range cap.spans() {
		if s.Name == transport.MethodObsExport {
			t.Fatalf("exporter shipped its own export span: %+v", s)
		}
	}
	if n := len(cap.spans()); n != 1 {
		t.Errorf("exported %d spans, want 1", n)
	}
}

// TestExporterBatchSiteDefaultsToRegistry pins that when the Site
// option is left empty, the wire batch header carries the registry's
// SetSite value (records travel with a blank Site; the collector
// unfolds the header onto them).
func TestExporterBatchSiteDefaultsToRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetSite("schoolsrv")
	cap := &captureClient{}
	e := StartExporter(reg, cap, ExporterOptions{})
	defer e.Close()

	reg.StartSpan("op", "client").End(nil)
	e.Flush()

	cap.mu.Lock()
	defer cap.mu.Unlock()
	if len(cap.batches) != 1 {
		t.Fatalf("shipped %d batches, want 1", len(cap.batches))
	}
	if got := cap.batches[0].Site; got != "schoolsrv" {
		t.Errorf("Batch.Site = %q, want schoolsrv (registry default)", got)
	}
	if got := cap.batches[0].Spans[0].Site; got != "" {
		t.Errorf("record Site = %q on the wire, want blank (header carries it)", got)
	}
}

func TestExporterNeverBlocksAndCountsDrops(t *testing.T) {
	reg := obs.NewRegistry()
	// A client that blocks forever would back the export goroutine up;
	// the hot path must still complete instantly and count the drops.
	blocked := make(chan struct{})
	defer close(blocked)
	cl := transport.Client(blockingClient{blocked})
	e := StartExporter(reg, cl, ExporterOptions{QueueDepth: 4, BatchSize: 1000, FlushInterval: time.Hour})
	defer func() {
		// Detach the sink without waiting for the blocked client.
		reg.SetSpanSink(nil)
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			reg.StartSpan("op", "client").End(nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Span.End blocked behind a stuck exporter")
	}
	if d := reg.Counter("obs_export_dropped_total").Value(); d < 90 {
		t.Errorf("dropped = %d, want >= 90 (queue depth 4, 100 spans, stuck export)", d)
	}
	_ = e // leaked goroutine is reclaimed at process exit; Close would block on the stuck client
}

// TestExporterCloseLeavesNoGoroutine: the export loop exits on Close,
// having shipped what was queued.
func TestExporterCloseLeavesNoGoroutine(t *testing.T) {
	leaktest.Check(t)
	reg := obs.NewRegistry()
	cap := &captureClient{}
	e := StartExporter(reg, cap, ExporterOptions{FlushInterval: time.Millisecond})
	reg.StartSpan("op", "client").End(nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(cap.spans()); n != 1 {
		t.Errorf("Close shipped %d spans, want 1", n)
	}
}

// TestCollectorCloseLeavesNoGoroutine: the sweeper exits on Close.
func TestCollectorCloseLeavesNoGoroutine(t *testing.T) {
	leaktest.Check(t)
	c := NewCollector(RetainPolicy{})
	c.Start(time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

type blockingClient struct{ blocked chan struct{} }

func (b blockingClient) Call(string, []byte) ([]byte, error) { <-b.blocked; return nil, nil }
func (b blockingClient) Close() error                        { return nil }

// TestBatchWireRoundTrip pins the binary batch codec: every field
// survives, and malformed payloads (truncation anywhere, a bogus
// version, an absurd span count) error instead of panicking or
// over-allocating.
func TestBatchWireRoundTrip(t *testing.T) {
	in := Batch{Site: "schoolsrv", Spans: []SpanRecord{
		{Trace: 1, ID: 2, Parent: 3, Name: "db.GetContent", Kind: "client",
			Site: "navigator", Err: "", StartNS: -5, DurNS: 1 << 40},
		{Trace: ^uint64(0), ID: 1, Parent: 0, Name: "", Kind: "server",
			Site: "store", Err: obs.DeadlineMissPrefix + "3 of 40", StartNS: 1 << 60, DurNS: 0},
	}}
	data := appendBatch(nil, in)
	out, err := decodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Site != in.Site || len(out.Spans) != len(in.Spans) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	for i := range in.Spans {
		if out.Spans[i] != in.Spans[i] {
			t.Errorf("span %d = %+v, want %+v", i, out.Spans[i], in.Spans[i])
		}
	}

	if _, err := decodeBatch(nil); err == nil {
		t.Error("empty payload decoded without error")
	}
	if _, err := decodeBatch([]byte{99}); err == nil {
		t.Error("unknown version decoded without error")
	}
	for cut := 1; cut < len(data); cut++ {
		if _, err := decodeBatch(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(data))
		}
	}
}

// mkspan builds a SpanRecord tree node for collector tests.
func mkspan(trace, id, parent uint64, name, kind, site string, start, dur time.Duration) SpanRecord {
	return SpanRecord{
		Trace: trace, ID: id, Parent: parent, Name: name, Kind: kind, Site: site,
		StartNS: int64(start), DurNS: int64(dur),
	}
}

func TestCollectorAssemblyAndCriticalPath(t *testing.T) {
	c := NewCollector(RetainPolicy{SlowThreshold: 50 * time.Millisecond, SampleRate: 0})
	// navigator client (100ms) → edge server (90ms) → edge client (80ms)
	// → store server (75ms): the store hop owns the latency.
	c.Add(Batch{Spans: []SpanRecord{
		mkspan(7, 1, 0, "db.GetContent", "client", "navigator", 0, 100*time.Millisecond),
		mkspan(7, 2, 1, "db.GetContent", "server", "edge", time.Millisecond, 90*time.Millisecond),
	}})
	c.Add(Batch{Spans: []SpanRecord{ // second batch, same trace; one dup
		mkspan(7, 2, 1, "db.GetContent", "server", "edge", time.Millisecond, 90*time.Millisecond),
		mkspan(7, 3, 2, "db.GetContent", "client", "edge", 2*time.Millisecond, 80*time.Millisecond),
		mkspan(7, 4, 3, "db.GetContent", "server", "store", 3*time.Millisecond, 75*time.Millisecond),
	}})
	if n := c.Sweep(0); n != 1 {
		t.Fatalf("Sweep finalized %d traces, want 1", n)
	}
	tr := c.Get(obs.TraceID(7))
	if tr == nil {
		t.Fatal("trace 7 not retained")
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("assembled %d spans, want 4 (dedupe)", len(tr.Spans))
	}
	if tr.Reason != "slow" {
		t.Errorf("reason = %q, want slow", tr.Reason)
	}
	if tr.Root == nil || tr.Root.ID != 1 {
		t.Fatalf("root = %+v, want span 1", tr.Root)
	}
	if len(tr.Critical) != 4 {
		t.Fatalf("critical path has %d steps, want 4", len(tr.Critical))
	}
	var sum time.Duration
	for _, st := range tr.Critical {
		sum += st.Self
	}
	if sum != tr.Dur {
		t.Errorf("critical-path selfs sum to %v, want root dur %v", sum, tr.Dur)
	}
	leaf := tr.Critical[3]
	if leaf.Span.Site != "store" || leaf.Self != 75*time.Millisecond {
		t.Errorf("leaf step = %s self=%v, want store self=75ms", leaf.Span.Site, leaf.Self)
	}
}

func TestCollectorTailSampling(t *testing.T) {
	c := NewCollector(RetainPolicy{SlowThreshold: time.Hour, SampleRate: 0})
	add := func(trace uint64, err string, dur time.Duration) {
		rec := mkspan(trace, 1, 0, "op", "client", "n", 0, dur)
		rec.Err = err
		c.Add(Batch{Spans: []SpanRecord{rec}})
	}
	add(1, "", time.Millisecond)                        // ordinary → sampled out
	add(2, "connection refused", time.Millisecond)      // error → kept
	add(3, obs.DeadlineMissPrefix+"3 of 40", time.Hour) // deadline → kept, wins over slow
	add(4, "", 2*time.Hour)                             // slow → kept
	c.Sweep(0)

	if tr := c.Get(obs.TraceID(1)); tr != nil {
		t.Errorf("ordinary trace retained with SampleRate 0 (reason %q)", tr.Reason)
	}
	for id, want := range map[uint64]string{2: "error", 3: "deadline", 4: "slow"} {
		tr := c.Get(obs.TraceID(id))
		if tr == nil {
			t.Errorf("trace %d not retained, want reason %q", id, want)
			continue
		}
		if tr.Reason != want {
			t.Errorf("trace %d reason = %q, want %q", id, tr.Reason, want)
		}
	}

	// SampleRate 1 keeps everything.
	c2 := NewCollector(RetainPolicy{SlowThreshold: time.Hour, SampleRate: 1})
	c2.Add(Batch{Spans: []SpanRecord{mkspan(9, 1, 0, "op", "client", "n", 0, time.Millisecond)}})
	c2.Sweep(0)
	if tr := c2.Get(obs.TraceID(9)); tr == nil || tr.Reason != "sampled" {
		t.Errorf("SampleRate 1 trace = %+v, want reason sampled", tr)
	}
}

// TestCollectorStragglerMergesIntoRetained is the regression for a
// late export retry (the 2s call timeout outlives the 1s
// CompleteAfter) re-finalizing an already-retained trace: the
// straggler's spans alone must never replace the complete tree —
// re-finalize merges, so a retained trace only ever gains spans.
func TestCollectorStragglerMergesIntoRetained(t *testing.T) {
	c := NewCollector(RetainPolicy{SlowThreshold: 50 * time.Millisecond, SampleRate: 0})
	c.Add(Batch{Spans: []SpanRecord{
		mkspan(7, 1, 0, "db.GetContent", "client", "navigator", 0, 100*time.Millisecond),
		mkspan(7, 2, 1, "db.GetContent", "server", "store", time.Millisecond, 90*time.Millisecond),
	}})
	c.Sweep(0)
	if tr := c.Get(obs.TraceID(7)); tr == nil || len(tr.Spans) != 2 {
		t.Fatalf("setup: trace not retained with 2 spans: %+v", tr)
	}

	// The straggler: a retried delivery carrying one dup and one span
	// the first finalize never saw.
	c.Add(Batch{Spans: []SpanRecord{
		mkspan(7, 2, 1, "db.GetContent", "server", "store", time.Millisecond, 90*time.Millisecond),
		mkspan(7, 3, 2, "store.ReadBlock", "internal", "store", 2*time.Millisecond, 80*time.Millisecond),
	}})
	c.Sweep(0)

	tr := c.Get(obs.TraceID(7))
	if tr == nil {
		t.Fatal("trace lost after straggler re-finalize")
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("re-finalized trace holds %d spans, want 3 (merged, not replaced)", len(tr.Spans))
	}
	if tr.Root == nil || tr.Root.ID != 1 {
		t.Errorf("root = %+v, want original span 1", tr.Root)
	}
	if tr.Reason != "slow" {
		t.Errorf("reason = %q, want slow preserved across re-finalize", tr.Reason)
	}
	if n := len(c.Retained()); n != 1 {
		t.Errorf("recorder holds %d traces, want 1 (in-place replacement)", n)
	}
}

// TestCollectorStragglerUpgradesReason: when the late spans carry the
// error the first pass never saw, the retained reason upgrades.
func TestCollectorStragglerUpgradesReason(t *testing.T) {
	c := NewCollector(RetainPolicy{SlowThreshold: 50 * time.Millisecond, SampleRate: 0})
	c.Add(Batch{Spans: []SpanRecord{
		mkspan(8, 1, 0, "op", "client", "n", 0, time.Hour),
	}})
	c.Sweep(0)
	if tr := c.Get(obs.TraceID(8)); tr == nil || tr.Reason != "slow" {
		t.Fatalf("setup: trace = %+v, want retained as slow", tr)
	}

	late := mkspan(8, 2, 1, "op", "server", "m", time.Millisecond, time.Minute)
	late.Err = "disk failure"
	c.Add(Batch{Spans: []SpanRecord{late}})
	c.Sweep(0)
	if tr := c.Get(obs.TraceID(8)); tr == nil || tr.Reason != "error" {
		t.Errorf("trace = %+v, want reason upgraded to error", tr)
	}
}

func TestCollectorRecorderBounded(t *testing.T) {
	c := NewCollector(RetainPolicy{RecorderSize: 3, SampleRate: 1})
	for i := uint64(1); i <= 5; i++ {
		c.Add(Batch{Spans: []SpanRecord{mkspan(i, 1, 0, "op", "client", "n", 0, time.Millisecond)}})
	}
	c.Sweep(0)
	if n := len(c.Retained()); n != 3 {
		t.Fatalf("recorder holds %d traces, want 3", n)
	}
}

func TestCollectorOverTransportAndViews(t *testing.T) {
	// Full pipeline over real TCP: exporter → obs.Export → collector →
	// HTTP views.
	col := NewCollector(RetainPolicy{SlowThreshold: time.Nanosecond, SampleRate: 0})
	mux := transport.NewMux()
	col.Register(mux)
	srv := transport.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	reg.SetSite("navigator")
	e := StartExporter(reg, Dial(addr), ExporterOptions{})
	sp := reg.StartSpan("db.GetContent", "client")
	child := reg.ContinueSpan("store.GetContent", "internal", sp.Trace, sp.ID)
	child.End(nil)
	sp.End(nil)
	e.Flush()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	col.Sweep(0)

	tr := col.Get(sp.Trace)
	if tr == nil {
		t.Fatalf("trace %s not retained after transport round trip", sp.Trace)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("collected %d spans, want 2", len(tr.Spans))
	}
	for i := range tr.Spans {
		if tr.Spans[i].Site != "navigator" {
			t.Errorf("span %d Site = %q, want navigator (unfolded from batch header)", i, tr.Spans[i].Site)
		}
	}

	webmux := http.NewServeMux()
	col.Mount(webmux)
	smux := httptest.NewRecorder()
	webmux.ServeHTTP(smux, httptest.NewRequest("GET", "/trace?id="+sp.Trace.String(), nil))
	if smux.Code != 200 {
		t.Fatalf("/trace?id= status %d: %s", smux.Code, smux.Body.String())
	}
	body := smux.Body.String()
	for _, want := range []string{"db.GetContent", "store.GetContent", "critical path:"} {
		if !strings.Contains(body, want) {
			t.Errorf("/trace body lacks %q:\n%s", want, body)
		}
	}
	rec404 := httptest.NewRecorder()
	webmux.ServeHTTP(rec404, httptest.NewRequest("GET", "/trace?id=00000000000000ff", nil))
	if rec404.Code != 404 {
		t.Errorf("absent trace status = %d, want 404", rec404.Code)
	}
	recList := httptest.NewRecorder()
	webmux.ServeHTTP(recList, httptest.NewRequest("GET", "/traces", nil))
	if !strings.Contains(recList.Body.String(), "reason=slow") {
		t.Errorf("/traces missing retained trace:\n%s", recList.Body.String())
	}
}

package collect

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mits/internal/lint/leaktest"
	"mits/internal/obs"
	"mits/internal/transport"
	"mits/internal/transport/wiretest"
)

// captureClient records the batches of obs.Export calls, decoded by an
// obs.Export route like the collector's.
type captureClient struct {
	mu      sync.Mutex
	batches []Batch
	fail    bool
}

func (c *captureClient) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail {
		return nil, nil, errors.New("collector unreachable")
	}
	return transport.Loopback{H: batchMux(func(b Batch) { c.batches = append(c.batches, b) })}.CallInTracePooled(sc, method, payload)
}

// batchMux mounts an obs.Export route that hands each batch to add.
func batchMux(add func(Batch)) *transport.Mux {
	m := transport.NewMux()
	transport.Route(m, transport.MethodObsExport, func(b Batch) (struct{}, error) {
		add(b)
		return struct{}{}, nil
	})
	return m
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
	e := StartExporter(reg, cap)
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
	e := StartExporter(reg, cap)
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
	e := StartExporter(reg, cap)
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
	leaktest.Check(t)
	reg := obs.NewRegistry()
	// A client that blocks would back the export goroutine up; the hot
	// path must still complete instantly and count the drops.
	cl := blockingClient{entered: make(chan struct{}, 1), blocked: make(chan struct{})}
	e := StartExporter(reg, cl)
	// Park the export goroutine inside its client with one span, so no
	// tick drains the queue while it fills.
	reg.StartSpan("op", "client").End(nil)
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		e.Flush()
	}()
	<-cl.entered

	const over = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8192+over; i++ {
			reg.StartSpan("op", "client").End(nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Span.End blocked behind a stuck exporter")
	}
	if d := reg.Counter("obs_export_dropped_total").Value(); d != over {
		t.Errorf("dropped = %d, want %d (8192 queued while the export is stuck)", d, over)
	}
	close(cl.blocked)
	<-flushed
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExporterCloseLeavesNoGoroutine: the export loop exits on Close,
// having shipped what was queued.
func TestExporterCloseLeavesNoGoroutine(t *testing.T) {
	leaktest.Check(t)
	reg := obs.NewRegistry()
	cap := &captureClient{}
	e := StartExporter(reg, cap)
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
	c := NewCollector()
	c.Start()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// blockingClient signals entered on each call and holds it until
// blocked closes.
type blockingClient struct{ entered, blocked chan struct{} }

func (b blockingClient) CallInTracePooled(obs.SpanContext, string, []byte) ([]byte, func(), error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.blocked
	return nil, nil, nil
}
func (b blockingClient) Close() error { return nil }

// TestBatchWireRoundTrip sends a batch the way the exporter does
// (Invoke) to a collector's route over Loopback: every field reaches
// the collector's traces unchanged, extremes included, and every
// truncation of the payload is refused.
func TestBatchWireRoundTrip(t *testing.T) {
	in := Batch{Site: "schoolsrv", Spans: []SpanRecord{
		{Trace: 1, ID: 2, Parent: 3, Name: "db.GetContent", Kind: "client",
			Site: "navigator", Err: "", StartNS: -5, DurNS: 1 << 40},
		{Trace: ^uint64(0), ID: 1, Parent: 0, Name: "", Kind: "server",
			Site: "store", Err: obs.DeadlineMissPrefix + "3 of 40", StartNS: 1 << 60, DurNS: 0},
	}}
	col := NewCollector()
	mux := transport.NewMux()
	col.Register(mux)
	rec := &wiretest.Recorder{Next: transport.Loopback{H: mux}}
	if err := transport.Invoke(rec, obs.SpanContext{}, transport.MethodObsExport, in, nil); err != nil {
		t.Fatal(err)
	}
	data := rec.Calls[0].Req
	for cut := range len(data) {
		if _, _, err := rec.CallInTracePooled(obs.SpanContext{}, transport.MethodObsExport, data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
	col.Sweep(0)
	if n := len(col.Retained()); n != len(in.Spans) {
		t.Errorf("collector retained %d traces, want %d", n, len(in.Spans))
	}
	for _, want := range in.Spans {
		tr := col.Get(obs.TraceID(want.Trace))
		if tr == nil || len(tr.Spans) != 1 || tr.Spans[0] != want {
			t.Errorf("trace %x = %+v, want the one span %+v", want.Trace, tr, want)
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
	c := NewCollector()
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
	c := NewCollector()
	sampledOut := obs.GetCounter("obs_collector_sampled_out_total")
	before := sampledOut.Value()
	add := func(trace uint64, err string, dur time.Duration) {
		rec := mkspan(trace, 1, 0, "op", "client", "n", 0, dur)
		rec.Err = err
		c.Add(Batch{Spans: []SpanRecord{rec}})
	}
	add(1, "", 99*time.Millisecond)                     // ordinary → sampled out
	add(2, "connection refused", time.Millisecond)      // error → kept
	add(3, obs.DeadlineMissPrefix+"3 of 40", time.Hour) // deadline → kept, wins over slow
	add(4, "", 100*time.Millisecond)                    // slow → kept
	c.Sweep(0)

	if tr := c.Get(obs.TraceID(1)); tr != nil {
		t.Errorf("ordinary 99ms trace retained (reason %q)", tr.Reason)
	}
	if got := sampledOut.Value() - before; got != 1 {
		t.Errorf("obs_collector_sampled_out_total moved by %d, want 1", got)
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
}

// TestCollectorStragglerMergesIntoRetained is the regression for a
// late export retry (the 2s call timeout outlives the 1s
// completeAfter) re-finalizing an already-retained trace: the
// straggler's spans alone must never replace the complete tree —
// re-finalize merges, so a retained trace only ever gains spans.
func TestCollectorStragglerMergesIntoRetained(t *testing.T) {
	c := NewCollector()
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
	c := NewCollector()
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

// TestCollectorRecorderBounded: the recorder holds 128 traces, and the
// 129th evicts the oldest.
func TestCollectorRecorderBounded(t *testing.T) {
	c := NewCollector()
	for i := uint64(1); i <= 129; i++ {
		c.Add(Batch{Spans: []SpanRecord{mkspan(i, 1, 0, "op", "client", "n", 0, time.Second)}})
		c.Sweep(0)
	}
	kept := c.Retained()
	if len(kept) != 128 {
		t.Fatalf("recorder holds %d traces, want 128", len(kept))
	}
	if c.Get(obs.TraceID(1)) != nil || kept[0].ID != 2 || kept[127].ID != 129 {
		t.Errorf("recorder spans traces %s..%s, want the oldest (1) evicted", kept[0].ID, kept[127].ID)
	}
}

func TestCollectorOverTransportAndViews(t *testing.T) {
	// Full pipeline over real TCP: exporter → obs.Export → collector →
	// HTTP views.
	col := NewCollector()
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
	e := StartExporter(reg, Dial(addr))
	sp := reg.StartSpan("db.GetContent", "client")
	sp.Start = sp.Start.Add(-slowTrace) // a root slow enough to keep
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

package bench

import (
	"strings"
	"testing"

	"mits"
	"mits/internal/media"
	"mits/internal/obs"
	"mits/internal/transport"
)

// The navigator-facing wrapper must look to DBClient exactly like the
// pool it wraps, or wrapping would itself move the numbers.
var (
	_ transport.Client            = (*traceClient)(nil)
	_ transport.TraceCaller       = (*traceClient)(nil)
	_ transport.PooledTraceCaller = (*traceClient)(nil)
	_ transport.Handler           = (*traceHandler)(nil)
	_ transport.CtxHandler        = (*traceHandler)(nil)
)

// pooledFake answers every call and notes which entry point was used
// and under which trace.
type pooledFake struct {
	pooled, plain int
	traces        []obs.TraceID
}

func (f *pooledFake) Call(string, []byte) ([]byte, error) { f.plain++; return nil, nil }
func (f *pooledFake) Close() error                        { return nil }
func (f *pooledFake) CallInTrace(sc obs.SpanContext, _ string, _ []byte) ([]byte, error) {
	f.plain++
	f.traces = append(f.traces, sc.Trace)
	return nil, nil
}
func (f *pooledFake) CallInTracePooled(sc obs.SpanContext, _ string, _ []byte) ([]byte, func(), error) {
	f.pooled++
	f.traces = append(f.traces, sc.Trace)
	return nil, func() {}, nil
}

func TestTraceClientKeepsThePooledPathAndStampsTheTrace(t *testing.T) {
	fake := &pooledFake{}
	tr := newTracer()
	a, c := newActor(fake, tr)
	db := transport.DBClient{C: c}
	err := a.do(opSearch, "", noDue, func() error {
		_, _ = db.GetDocByKeyword("x") // the fake's empty reply does not decode; the call shape is what matters
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fake.pooled != 1 || fake.plain != 0 {
		t.Errorf("typed DBClient call took pooled=%d plain=%d entry points, want the pooled one", fake.pooled, fake.plain)
	}
	spans := tr.drain()
	if len(spans) != 2 || spans[0].Kind != spanClient || spans[1].Kind != spanRoot {
		t.Fatalf("want a client.call then its root, got %+v", spans)
	}
	if spans[0].Trace == 0 || spans[0].Trace != spans[1].Trace || obs.TraceID(spans[0].Trace) != fake.traces[0] {
		t.Errorf("client.call trace %d, root trace %d, wire trace %d: all three must match", spans[0].Trace, spans[1].Trace, fake.traces[0])
	}
}

func TestCachedReadThroughTraceClientAllocatesNothing(t *testing.T) {
	sys := mits.NewSystem("alloc")
	data := makeContent(1, "library/a.html", 1, holdingBytes)
	if err := sys.Store.PutContent("library/a.html", string(media.CodingHTML), data); err != nil {
		t.Fatal(err)
	}
	st, err := openStore(sys, 1, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	_, nav := st.navigator(true)
	if _, err := nav.ReadLibrary("library/a.html"); err != nil { // fills the cache through the wrapper
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := nav.ReadLibrary("library/a.html"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a cached ReadLibrary allocated %.1f times through the trace client, want 0", allocs)
	}
}

// mk builds a span; times in microseconds for legibility.
func mk(trace uint64, kind spanKind, name string, startUs, endUs int64) span {
	return span{Trace: trace, Kind: kind, Name: name, Start: startUs * 1000, End: endUs * 1000, Req: 10, Resp: 90}
}

func TestAnalyzeSelfTimesAndOrphans(t *testing.T) {
	get, put, chunk := transport.MethodGetContent, transport.MethodPutContent, transport.MethodGetContentStream
	stream := []span{
		// Trace 3: a two-chunk stream on a single store.
		mk(3, spanRoot, "stream", 300, 400),
		mk(3, spanClient, chunk, 310, 340),
		mk(3, spanServer, chunk, 320, 330),
		mk(3, spanClient, chunk, 350, 390),
		mk(3, spanServer, chunk, 360, 380),
	}
	spans := []span{
		// Trace 1: a cluster read: root ⊃ client ⊃ router ⊃ replica ⊃ store.
		mk(1, spanRoot, "read", 0, 100),
		mk(1, spanClient, get, 5, 95),
		mk(1, spanServer, get, 20, 80),
		{Trace: 1, Kind: spanReplica, Name: get, Attr: "shard0/replica1", Start: 30_000, End: 70_000},
		mk(1, spanStore, get, 40, 60),
		// Trace 2: a cache hit: a root with nothing under it.
		mk(2, spanRoot, "read", 200, 201),
		// Trace 4: a cluster write, then its replication apply under a
		// trace of the store client's own making (background, no root).
		mk(4, spanRoot, "write", 500, 600),
		mk(4, spanClient, put, 505, 595),
		mk(4, spanServer, put, 510, 590),
		{Trace: 4, Kind: spanReplica, Name: put, Attr: "shard0/primary", Start: 520_000, End: 570_000},
		mk(4, spanStore, put, 530, 560),
		{Trace: 0, Kind: spanReplica, Name: put, Attr: "shard0/replica1", Start: 600_000, End: 650_000},
		mk(987654321, spanStore, put, 610, 640),
	}
	spans = append(spans, stream...)
	la := analyze(spans)
	if la.orphans != 0 || len(la.violations) != 0 {
		t.Fatalf("a well-formed window gave %d orphans, violations %v", la.orphans, la.violations)
	}
	w := &window{recs: []*recorder{{bytes: 1000}}}
	m := map[string]float64{}
	la.metrics(w, m)
	for name, want := range map[string]float64{
		"navigator.op_us_p50.stream":              100,
		"cache.hit_ratio":                         1.0 / 3, // reads and the stream are content ops; one made no RPC
		"cache.hit_us":                            1,
		"transport.self_us_per_rpc":               (30 + 10) / 2.0, // (90-60) for the read, (90-80) for the write
		"transport.self_us_per_chunk":             (20 + 20) / 2.0,
		"transport.client_us_p50.chunk":           30,
		"transport.rpcs_per_op":                   4.0 / 4,
		"transport.payload_bytes_per_useful_byte": 400.0 / 1000,
		"cluster.router_self_us.read":             60 - 40,
		"cluster.router_self_us.write":            80 - 50,
		"cluster.replica_calls_per_read":          1,
		"cluster.primary_read_share":              0,
		"mediastore.handle_us_p50.get_content":    20, // the store node's span, not the router's 60
		"mediastore.handle_us_p50.put_content":    30, // p50 of the primary's 30 and the replica apply's 30
		"trace.orphan_spans":                      0,
	} {
		if got, ok := m[name]; !ok || got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// On a single store the front server is the store.
	single := map[string]float64{}
	analyze(stream).metrics(w, single)
	if got := single["mediastore.handle_us_p50.get_content_stream"]; got != 10 {
		t.Errorf("single-store mediastore.handle_us_p50.get_content_stream = %v, want 10", got)
	}
	if got := la.chunkByteShare(); got != 0.5 {
		t.Errorf("chunk RPCs carried %v of the payload bytes, want 0.5", got)
	}

	// A client.call whose server.handle never happened, a server.handle
	// nobody asked for, and a root shorter than its child.
	broken := []span{
		mk(1, spanRoot, "read", 0, 100),
		mk(1, spanClient, get, 5, 95),
		mk(555, spanServer, get, 20, 80),
		mk(2, spanRoot, "read", 200, 210),
		mk(2, spanClient, get, 201, 250),
	}
	la = analyze(broken)
	if la.orphans < 3 {
		t.Errorf("got %d orphans, want at least 3 (unanswered call, unasked handle, overlong child)", la.orphans)
	}
	if len(la.violations) == 0 || !strings.Contains(la.violations[len(la.violations)-1], "orphan") {
		t.Errorf("orphans must be reported as a violation, got %v", la.violations)
	}
}

package transport

import (
	"testing"

	"mits/internal/cache"
	"mits/internal/lint/leaktest"
	"mits/internal/obs"
	"mits/internal/obs/spantest"
)

// TestTracePropagatesAcrossHops runs the full three-node delivery
// shape over real TCP — navigator client → edge (a ForwardHandler
// whose DBClient dials the store) → store server — and asserts that
// one call under the navigator's root span produces one trace whose
// spans chain parent-to-child across every hop:
//
//	root → client(navigator) → server(edge) → client(edge) → server(store)
//	                                                       → internal(store.GetContent)
//
// This is the wire contract the collector's critical path depends on:
// if any hop dropped or re-rooted the context, the trace would
// fragment and the slow hop could not be attributed.
func TestTracePropagatesAcrossHops(t *testing.T) {
	leaktest.Check(t)
	store := testStore(t)

	storeMux := NewMux()
	RegisterStore(storeMux, store)
	storeSrv := NewTCPServer(storeMux)
	storeAddr, err := storeSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer storeSrv.Close()

	up, err := DialTCP(storeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	edge := DBClient{C: up}.WithContentCache(cache.New("tracehop", 1<<20))
	edgeSrv := NewTCPServer(ForwardHandler{DB: edge})
	edgeAddr, err := edgeSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer edgeSrv.Close()

	nav, err := DialTCP(edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nav.Close()

	req, err := EncodeGetContent("store/v.mpg")
	if err != nil {
		t.Fatal(err)
	}
	rec := spantest.Record(t, obs.Default)
	_, trace, err := callUnderRoot(nav, MethodGetContent, req)
	if err != nil {
		t.Fatal(err)
	}

	spans := rec.Of(trace)
	if len(spans) != 6 {
		t.Fatalf("trace %s has %d spans, want 6: %+v", trace, len(spans), spans)
	}
	byID := make(map[obs.SpanID]*obs.Span, len(spans))
	kinds := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		kinds[s.Kind]++
		if s.Trace != trace {
			t.Errorf("span %s carries trace %s, want %s", s.Name, s.Trace, trace)
		}
	}
	if kinds["client"] != 2 || kinds["server"] != 2 || kinds["internal"] != 2 {
		t.Fatalf("span kinds = %v, want 2 client, 2 server, 2 internal (root + store)", kinds)
	}

	// Walk each span to the root: every span must reach the navigator's
	// root span, and depth must match its hop.
	var root *obs.Span
	for _, s := range spans {
		depth := 0
		cur := s
		for cur.Parent != 0 {
			p := byID[cur.Parent]
			if p == nil {
				t.Fatalf("span %s/%s has dangling parent %d", s.Name, s.Kind, cur.Parent)
			}
			cur = p
			depth++
		}
		if root == nil {
			root = cur
		} else if cur != root {
			t.Fatalf("span %s/%s reaches root %d, others reach %d", s.Name, s.Kind, cur.ID, root.ID)
		}
		switch {
		case s.Kind == "internal" && depth != 0 && depth != 5:
			t.Errorf("internal span %s at depth %d, want 0 (root) or 5 (store)", s.Name, depth)
		case s.Kind == "client" && depth != 1 && depth != 3:
			t.Errorf("client span at depth %d, want 1 or 3", depth)
		case s.Kind == "server" && depth != 2 && depth != 4:
			t.Errorf("server span at depth %d, want 2 or 4", depth)
		}
	}
	if root.Name != "test.root" {
		t.Fatalf("root span = %s/%s, want the test's own root", root.Name, root.Kind)
	}

	// Second request hits the edge cache: the trace still forms, but
	// stops at the edge — no store-side spans.
	_, trace2, err := callUnderRoot(nav, MethodGetContent, req)
	if err != nil {
		t.Fatal(err)
	}
	spans2 := rec.Of(trace2)
	if len(spans2) != 3 {
		t.Fatalf("cache-hit trace has %d spans, want 3 (root+client+edge server): %+v", len(spans2), spans2)
	}
	for _, s := range spans2 {
		if s.Name == "store.GetContent" {
			t.Errorf("cache-hit trace reached the store: %+v", s)
		}
	}
}

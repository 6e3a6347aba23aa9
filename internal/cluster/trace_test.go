package cluster

import (
	"bytes"
	"testing"

	"mits/internal/lint/leaktest"
	"mits/internal/obs"
	"mits/internal/obs/spantest"
	"mits/internal/transport"
)

// TestTracePropagatesAcrossHops runs the production multi-hop shape
// over real TCP — navigator client → cluster front door (the router,
// served by a TCPServer) → the router's replica client → store server —
// and asserts that one call under the navigator's root span produces
// one trace whose spans chain parent-to-child across every hop:
//
//	root → client(navigator) → server(front door) → client(replica)
//	     → server(store) → internal(store.GetContent)
//
// This is the wire contract the collector's critical path depends on:
// if any hop dropped or re-rooted the context, the trace would
// fragment and the slow hop could not be attributed.
func TestTracePropagatesAcrossHops(t *testing.T) {
	leaktest.Check(t)
	r, nodes := testCluster(t, 1, 1)
	const ref = "store/v.mpg"
	if err := nodes[0][0].Store.PutContent(ref, "MPEG", bytes.Repeat([]byte("v"), 100000)); err != nil {
		t.Fatal(err)
	}
	front := transport.NewTCPServer(r)
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	nav, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nav.Close()

	req, err := transport.EncodeGetContent(ref)
	if err != nil {
		t.Fatal(err)
	}
	rec := spantest.Record(t, obs.Default)
	root := obs.StartSpan("test.root", "internal")
	_, err = transport.CallInTrace(nav, root.Context(), transport.MethodGetContent, req)
	root.End(err)
	if err != nil {
		t.Fatal(err)
	}

	spans := rec.Of(root.Trace)
	if len(spans) != 6 {
		t.Fatalf("trace %s has %d spans, want 6: %+v", root.Trace, len(spans), spans)
	}
	byID := make(map[obs.SpanID]*obs.Span, len(spans))
	var leaf *obs.Span
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "store.GetContent" {
			leaf = s
		}
	}
	if leaf == nil {
		t.Fatalf("no store.GetContent span in %+v", spans)
	}
	want := []string{
		"store.GetContent/internal",
		transport.MethodGetContent + "/server", // store
		transport.MethodGetContent + "/client", // the router's replica client
		transport.MethodGetContent + "/server", // front door
		transport.MethodGetContent + "/client", // navigator
		"test.root/internal",
	}
	var chain []string
	for cur := leaf; ; {
		chain = append(chain, cur.Name+"/"+cur.Kind)
		if cur.Parent == 0 {
			break
		}
		p := byID[cur.Parent]
		if p == nil {
			t.Fatalf("span %s/%s has dangling parent %d", cur.Name, cur.Kind, cur.Parent)
		}
		cur = p
	}
	if len(chain) != len(want) {
		t.Fatalf("chain from the store to the root = %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain from the store to the root = %v, want %v", chain, want)
		}
	}
}

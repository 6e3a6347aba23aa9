package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mits/internal/lint/leaktest"

	"mits/internal/obs"
	"mits/internal/obs/spantest"
)

// callUnderRoot issues one call under a root span the test owns and
// reports the trace it travelled under — how any caller that needs to
// know its trace ID does it (there is no "last trace" on the client).
func callUnderRoot(c Client, method string, payload []byte) ([]byte, obs.TraceID, error) {
	root := obs.StartSpan("test.root", "internal")
	out, err := CallInTrace(c, root.Context(), method, payload)
	root.End(err)
	return out, root.Trace, err
}

// TestFrameLayoutPinned pins the one header layout byte for byte:
// kind(1) id(8) corr(8) trace(8) span(8) nameLen(4) name payLen(4)
// payload, kind bytes 5 (request) and 6 (response). These are the
// bytes the multiplexed TCP path has always put on the wire.
func TestFrameLayoutPinned(t *testing.T) {
	build := func(kind byte, id, corr, trace, span uint64, name string, payload []byte) []byte {
		buf := []byte{kind}
		for _, v := range []uint64{id, corr, trace, span} {
			buf = binary.BigEndian.AppendUint64(buf, v)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
		return append(buf, payload...)
	}
	for _, tc := range []struct {
		f    *frame
		want []byte
	}{
		{&frame{kind: kindRequest, id: 7, corr: 7, trace: 0xfeed, span: 3, method: "db.Get_Selected_Doc", payload: []byte("payload")},
			build(5, 7, 7, 0xfeed, 3, "db.Get_Selected_Doc", []byte("payload"))},
		{&frame{kind: kindResponse, id: 7, corr: 7, errText: "boom"},
			build(6, 7, 7, 0, 0, "boom", nil)},
		// The ATM carrier pairs by id alone: corr stays zero but is on
		// the wire all the same.
		{&frame{kind: kindRequest, id: 9, method: "m"}, build(5, 9, 0, 0, 0, "m", nil)},
	} {
		if got := tc.f.marshal(); !bytes.Equal(got, tc.want) {
			t.Errorf("frame %+v encodes as\n got %x\nwant %x", tc.f, got, tc.want)
		}
		if got := tc.f.wireSize(); got != len(tc.want) {
			t.Errorf("wireSize = %d, want %d", got, len(tc.want))
		}
	}
}

// TestFrameRejectsRetiredKinds: kind bytes 1–4 named two earlier header
// layouts; with one layout left they are as malformed as any other
// unknown byte, whatever follows them.
func TestFrameRejectsRetiredKinds(t *testing.T) {
	raw := (&frame{kind: kindRequest, id: 1, corr: 1, method: "m", payload: []byte("p")}).marshal()
	for _, kind := range []byte{0, 1, 2, 3, 4, 7, 0xff} {
		raw[0] = kind
		if _, err := unmarshalFrame(raw); !errors.Is(err, ErrBadFrame) {
			t.Errorf("kind %d: err = %v, want ErrBadFrame", kind, err)
		}
	}
}

// TestTraceAcrossTCP drives a real TCP round trip and checks the
// client and server spans land in the registry under one shared trace
// ID, with the server span parented on the client span — the
// acceptance path for following one GetDocument across sites.
func TestTraceAcrossTCP(t *testing.T) {
	leaktest.Check(t)
	mux := NewMux()
	mux.RegisterPooled("echo", echo)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rec := spantest.Record(t, obs.Default)
	_, trace, err := callUnderRoot(cli, "echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}

	spans := rec.Of(trace)
	var client, server *obs.Span
	for _, s := range spans {
		switch s.Kind {
		case "client":
			client = s
		case "server":
			server = s
		}
	}
	if client == nil || server == nil {
		t.Fatalf("want client+server spans for trace %s, got %d spans", trace, len(spans))
	}
	if client.Name != "echo" || server.Name != "echo" {
		t.Fatalf("span names: client=%q server=%q", client.Name, server.Name)
	}
	if server.Parent != client.ID {
		t.Fatalf("server span parent %s, want client span %s", server.Parent, client.ID)
	}
	if client.Dur <= 0 || server.Dur < 0 {
		t.Fatalf("span durations not recorded: client=%v server=%v", client.Dur, server.Dur)
	}

	// The latency histograms fed by the same round trip must be
	// non-empty on both sides.
	for _, name := range []string{"transport_client_latency_ns", "transport_server_latency_ns"} {
		h := obs.GetHistogram(name, "method", "echo")
		if h.Count() == 0 {
			t.Fatalf("%s empty after a round trip", name)
		}
		if s := h.Snapshot(); s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 {
			t.Fatalf("%s percentiles inconsistent: %+v", name, s)
		}
	}
}

// TestTraceAcrossATM checks trace propagation on the experiment-path
// carrier too: the server span recorded while handling an ATM RPC
// joins the trace opened by Go.
func TestTraceAcrossATM(t *testing.T) {
	leaktest.Check(t)
	n, client, server := atmTestNet(t)
	mux := NewMux()
	mux.RegisterPooled("echo", echo)
	sess, err := OpenATMSession(n, client, server, mux, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	rec := spantest.Record(t, obs.Default)
	if _, err := sess.CallOver("echo", []byte("y")); err != nil {
		t.Fatal(err)
	}
	// The recorder sees only spans ended since this test began: exactly
	// one echo client span, and one server span in its trace.
	var clients []*obs.Span
	for _, s := range rec.Of(0) {
		if s.Name == "echo" && s.Kind == "client" {
			clients = append(clients, s)
		}
	}
	if len(clients) != 1 {
		t.Fatalf("ATM call recorded %d echo client spans, want 1", len(clients))
	}
	var servers []*obs.Span
	for _, s := range rec.Of(clients[0].Trace) {
		if s.Kind == "server" {
			servers = append(servers, s)
		}
	}
	if len(servers) != 1 || servers[0].Name != "echo" || servers[0].Parent != clients[0].ID {
		t.Fatalf("trace %s: server spans %+v, want one echo span parented on client %s", clients[0].Trace, servers, clients[0].ID)
	}
}

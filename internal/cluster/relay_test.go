package cluster

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"mits/internal/lint/leaktest"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/transport"
)

// countingNode is a store node reached over a carrier that hands every
// response out as a pooled buffer: the release is counted per buffer
// and scribbles over the bytes, so a relay that releases twice, never,
// or before the last reader is done shows up as a count or as garbage.
// Handler errors cross as RemoteError, as they would over a wire.
type countingNode struct {
	store *mediastore.Store
	mux   *transport.Mux

	mu       sync.Mutex
	releases []*int        // one counter per buffer handed out
	gate     chan struct{} // when non-nil, calls park here after the handler ran
	parked   int
}

func newCountingNode() *countingNode {
	n := &countingNode{store: mediastore.New(), mux: transport.NewMux()}
	transport.RegisterStore(n.mux, n.store)
	return n
}

func (n *countingNode) Close() error { return nil }

func (n *countingNode) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	out, err := n.mux.HandleCtx(sc, method, payload)
	n.mu.Lock()
	gate := n.gate
	if gate != nil {
		n.parked++
	}
	n.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if err != nil {
		return nil, nil, &transport.RemoteError{Method: method, Text: err.Error()}
	}
	buf := append([]byte{}, out...)
	count := new(int)
	n.mu.Lock()
	n.releases = append(n.releases, count)
	n.mu.Unlock()
	return buf, func() {
		n.mu.Lock()
		*count++
		n.mu.Unlock()
		for i := range buf {
			buf[i] = 0xDD
		}
	}, nil
}

// blindHandler speaks Handler and CtxHandler and nothing newer, like a
// wrapper written before responses could be pooled.
type blindHandler struct{ r *Router }

func (b blindHandler) Handle(method string, payload []byte) ([]byte, error) {
	return b.r.Handle(method, payload)
}

func (b blindHandler) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	return b.r.HandleCtx(sc, method, payload)
}

// settled reports how many buffers the node handed out, after checking
// that each was released exactly want times.
func (n *countingNode) settled(t *testing.T, name string, want int) int {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, c := range n.releases {
		if *c != want {
			t.Errorf("%s: response %d released %d times, want %d", name, i, *c, want)
		}
	}
	handed := len(n.releases)
	n.releases = nil
	return handed
}

// relayCluster is one shard — a primary and two read replicas, all
// countingNodes — behind a router.
func relayCluster(t *testing.T) (*Router, []*countingNode) {
	t.Helper()
	var nodes []*countingNode
	var sc ShardConfig
	for j := 0; j < 3; j++ {
		n := newCountingNode()
		nodes = append(nodes, n)
		sc.Replicas = append(sc.Replicas, ReplicaConfig{Dial: func() (transport.Client, error) { return n, nil }})
	}
	r, err := New(Config{Shards: []ShardConfig{sc}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, nodes
}

// TestRouterRelayReleasesExactlyOnce: the router hands a node's pooled
// response to whoever serves it instead of copying it, so the release
// that came with the buffer must run exactly once on every way out —
// after the caller is done with a relayed read or write, after the
// ladder fell through replicas that had nothing, when the front door's
// connection is already dead, after a scatter's merge has decoded its
// legs, for the appliers' acknowledgements — and by the router itself,
// behind a copy, for a wrapper that only speaks CtxHandler.
func TestRouterRelayReleasesExactlyOnce(t *testing.T) {
	leaktest.Check(t)
	r, nodes := relayCluster(t)
	primary := nodes[0]
	settle := func(name string, want int) (handed int) {
		t.Helper()
		for _, n := range nodes {
			handed += n.settled(t, name, want)
		}
		return handed
	}
	content := func(name string, payload []byte, want string) {
		t.Helper()
		ck, err := transport.DecodeContentChunk(payload)
		if err != nil || string(ck.Data) != want {
			t.Fatalf("%s: relayed a chunk that is not %q (%v)", name, want, err)
		}
	}
	getContent := func(ref string) []byte {
		t.Helper()
		req, err := transport.EncodeGetContent(ref)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}

	// Writes through the router: the primary's answer is relayed, the
	// appliers release the replicas' acknowledgements themselves.
	db := transport.DBClient{C: transport.Loopback{H: r}}
	if v, err := db.PutDocument("course-a", "Course A", "text", []byte("body"), "network/video"); err != nil || v != 1 {
		t.Fatalf("PutDocument = %d, %v", v, err)
	}
	if err := db.PutContent("store/a.mpg", "mpeg", []byte("frames of a")); err != nil {
		t.Fatal(err)
	}
	if !r.WaitConverged(2 * time.Second) {
		t.Fatalf("replication backlog never drained: %d pending", r.Backlog())
	}
	if handed := settle("writes", 1); handed != 6 {
		t.Errorf("writes: %d responses handed out, want 6 (two puts on each of three nodes)", handed)
	}

	// A relayed read: the bytes are good until the release, which is
	// the caller's to make.
	out, release, err := r.HandleCtxPooled(obs.SpanContext{}, transport.MethodGetContent, getContent("store/a.mpg"))
	if err != nil || release == nil {
		t.Fatalf("relayed read: release %v, err %v", release != nil, err)
	}
	settle("read, before the caller released", 0)
	out, release, err = r.HandleCtxPooled(obs.SpanContext{}, transport.MethodGetContent, getContent("store/a.mpg"))
	if err != nil {
		t.Fatal(err)
	}
	content("read", out, "frames of a")
	release()
	if handed := settle("read", 1); handed != 1 {
		t.Errorf("read: %d responses handed out, want 1 (the first healthy replica's)", handed)
	}

	// Not-found falls through the ladder: only the primary has the
	// object, the replicas' refusals carry no buffer.
	if err := primary.store.PutContent("store/primary-only.mpg", "mpeg", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	out, release, err = r.HandleCtxPooled(obs.SpanContext{}, transport.MethodGetContent, getContent("store/primary-only.mpg"))
	if err != nil {
		t.Fatal(err)
	}
	content("ladder", out, "fresh")
	release()
	if handed := settle("ladder", 1); handed != 1 {
		t.Errorf("ladder: %d responses handed out, want the primary's alone", handed)
	}
	if _, release, err = r.HandleCtxPooled(obs.SpanContext{}, transport.MethodGetContent, getContent("store/nowhere.mpg")); err == nil || release != nil {
		t.Errorf("missing object: err %v, release %v", err, release != nil)
	}

	// Scatter legs are released by the merge, which has decoded them by
	// then: the merged answer is good and owes nothing.
	out, release, err = r.HandleCtxPooled(obs.SpanContext{}, transport.MethodListDocs, nil)
	names, derr := transport.DecodeNameList(out)
	if err != nil || derr != nil || release != nil || len(names) != 1 || names[0] != "course-a" {
		t.Fatalf("scatter: %v, release %v, %v %v", names, release != nil, err, derr)
	}
	out, _, err = r.HandleCtxPooled(obs.SpanContext{}, transport.MethodKeywordTree, nil)
	tree, _, derr := transport.DecodeKeywordTree(out)
	if err != nil || derr != nil || len(tree.Children) != 1 || tree.Children[0].Name != "network" {
		t.Fatalf("scatter tree: %+v, %v %v", tree, err, derr)
	}
	if handed := settle("scatter", 1); handed != 2 {
		t.Errorf("scatter: %d legs handed out, want 2", handed)
	}

	// A wrapper that only speaks CtxHandler has no way to release: the
	// router hands it a copy and gives the node's buffer back itself, so
	// the bytes stay good for as long as the caller likes.
	blind := transport.Loopback{H: blindHandler{r}}
	if out, err = transport.CallInTrace(blind, obs.SpanContext{}, transport.MethodGetContent, getContent("store/a.mpg")); err != nil {
		t.Fatal(err)
	}
	settle("release-blind wrapper", 1)
	content("release-blind wrapper", out, "frames of a")

	// The same surface mounted on a mux (mitsd -cluster) and served
	// over TCP: the server's writer makes the release.
	mux := transport.NewMux()
	r.Register(mux)
	srv := transport.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := transport.DBClient{C: cli}.GetContent("store/a.mpg")
	if err != nil || string(rec.Data) != "frames of a" {
		t.Fatalf("over TCP: %+v, %v", rec, err)
	}
	waitSettled(t, nodes, 1)
	settle("served on a mux", 1)

	// A front door whose connection dies while the read is at the node:
	// the response has nowhere to go and is released all the same.
	gate := make(chan struct{})
	for _, n := range nodes {
		n.mu.Lock()
		n.gate = gate
		n.mu.Unlock()
	}
	failed := make(chan error, 1)
	go func() {
		_, err := transport.DBClient{C: cli}.GetContent("store/a.mpg")
		failed <- err
	}()
	waitParked(t, nodes)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	if err := <-failed; !errors.Is(err, transport.ErrPeerClosed) {
		t.Errorf("read across a closing server: %v, want ErrPeerClosed", err)
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Errorf("server close: %v", err)
	}
	if handed := settle("dead front door", 1); handed != 1 {
		t.Errorf("dead front door: %d responses handed out, want 1", handed)
	}
	if err := cli.Close(); err != nil {
		t.Logf("client close: %v", err)
	}
}

// waitSettled waits until every buffer handed out so far has been
// released want times: the server releases after the client has its
// bytes, so the client returning does not mean it has happened yet.
func waitSettled(t *testing.T, nodes []*countingNode, want int) {
	t.Helper()
	waitFor(t, "responses released", func(n *countingNode) bool {
		for _, c := range n.releases {
			if *c < want {
				return false
			}
		}
		return true
	}, nodes, true)
}

// waitParked waits until a call is parked at some node's gate.
func waitParked(t *testing.T, nodes []*countingNode) {
	t.Helper()
	waitFor(t, "a call parked at a node", func(n *countingNode) bool { return n.parked > 0 }, nodes, false)
}

// waitFor polls cond, under each node's lock, until it holds for every
// node (all) or for any one of them.
func waitFor(t *testing.T, what string, cond func(*countingNode) bool, nodes []*countingNode, all bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		held := 0
		for _, n := range nodes {
			n.mu.Lock()
			if cond(n) {
				held++
			}
			n.mu.Unlock()
		}
		if held == len(nodes) || (!all && held > 0) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldNode is a countingNode whose content puts wait at hold before they
// reach the store: a replica whose applier is held back.
type heldNode struct {
	*countingNode
	hold chan struct{}
}

func (n heldNode) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	if method == transport.MethodPutContent {
		<-n.hold
	}
	return n.countingNode.CallInTracePooled(sc, method, payload)
}

// TestContentDigestAsksThePrimary: through the router, the digest of a
// ref is the shard primary's answer, not a read replica's. With the
// replicas' appliers held back after a republish, the replicas still
// hold the old bytes; a digest from the read ladder would vouch for
// them, and a publisher trusting it would skip a put the shard needs.
func TestContentDigestAsksThePrimary(t *testing.T) {
	const ref = "store/atm/welcome.mpg"
	old, fresh := []byte("first edition"), []byte("second edition")
	hold := make(chan struct{})
	var sc ShardConfig
	var nodes []*countingNode
	for j := 0; j < 3; j++ {
		n := newCountingNode()
		if err := n.store.PutContent(ref, "mpeg", old); err != nil { // converged on the first edition
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		var c transport.Client = n
		if j > 0 {
			c = heldNode{n, hold}
		}
		sc.Replicas = append(sc.Replicas, ReplicaConfig{Dial: func() (transport.Client, error) { return c, nil }})
	}
	r, err := New(Config{Shards: []ShardConfig{sc}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	released := false
	defer func() {
		if !released {
			close(hold)
		}
	}()
	db := transport.DBClient{C: transport.Loopback{H: r}}
	if err := db.PutContent(ref, "mpeg", fresh); err != nil {
		t.Fatal(err)
	}
	want := mediastore.Digest("mpeg", fresh)
	for i := 0; i < 4; i++ {
		if got, err := db.ContentDigest(ref); err != nil || got != want {
			t.Fatalf("ask %d: ContentDigest = %#x, %v; the primary holds %#x (a lagging replica %#x)", i, got, err, want, mediastore.Digest("mpeg", old))
		}
	}
	close(hold)
	released = true
	if !r.WaitConverged(5 * time.Second) {
		t.Fatal("replicas did not converge")
	}
	for j, n := range nodes {
		if got, _ := n.store.ContentDigest(ref); got != want {
			t.Errorf("node %d holds %#x after converging, want %#x", j, got, want)
		}
	}
}

// TestRouterServesTheStoreMethodSet: a router mounted on a mux serves
// exactly the methods a single store's mux does, so a client cannot
// tell the two apart by what they answer.
func TestRouterServesTheStoreMethodSet(t *testing.T) {
	single, routed := transport.NewMux(), transport.NewMux()
	transport.RegisterStore(single, mediastore.New())
	r, _ := relayCluster(t)
	r.Register(routed)
	if s, c := single.Methods(), routed.Methods(); !reflect.DeepEqual(s, c) {
		t.Errorf("a store serves %v, the router %v", s, c)
	}
}

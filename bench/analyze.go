package bench

import (
	"fmt"
	"sort"
	"strings"

	"mits/internal/school"
	"mits/internal/transport"
)

// layerAnalysis is what the spans of one traced window add up to. Spans
// of one navigator op share a trace ID and — because an op is one
// goroutine issuing one RPC at a time — nest strictly in time, so each
// span's parent is the innermost span of the next-outer kind that was
// open when it started. Self time is a span minus its children.
type layerAnalysis struct {
	violations []string
	orphans    int

	roots        map[string][]float64 // op → durations, us
	openSelf     []float64            // navigator.open minus its client.calls, us
	contentOps   int                  // navigator.read/stream roots
	contentLocal []float64            // ... that made no RPC at all: cache hits, us

	mainOps    int          // roots other than the paced prober's
	mainRPCs   int          // client.calls under them
	rpcs       [2]int       // client.calls by class: 0 small, 1 chunk
	rpcBytes   [2]int64     // request + response payload bytes by class
	rpcSelf    [2]float64   // Σ(client.call − server.handle), us
	rpcMatched [2]int       // client.calls that found their server.handle
	clientUs   [2][]float64 // client.call durations, us

	// method → handler durations in us, at the front server's seam and
	// at the cluster's store nodes.
	serverHandles, storeHandles map[string][]float64

	routerSelf   [2][]float64 // router handle minus replica.calls: 0 read, 1 write, us
	routed       [2]int       // router handles by class
	replicaCalls [2]int       // replica.calls under a routed read / write
	replicaUs    []float64    // replica.call durations (reads and writes), us
	primaryReads int          // routed reads answered by a shard primary
}

func isWrite(method string) bool {
	return method == transport.MethodPutContent || method == transport.MethodPutDoc
}

func class(method string) int {
	if method == transport.MethodGetContentStream {
		return 1
	}
	return 0
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// analyze reassembles the traces of a window.
func analyze(spans []span) *layerAnalysis {
	la := &layerAnalysis{roots: map[string][]float64{},
		serverHandles: map[string][]float64{}, storeHandles: map[string][]float64{}}
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Kind < b.Kind
	})
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Trace == spans[lo].Trace {
			hi++
		}
		la.trace(spans[lo:hi])
		lo = hi
	}
	if la.orphans > 0 {
		la.violations = append(la.violations, fmt.Sprintf("%d orphan spans (client.call and server.handle counts differ)", la.orphans))
	}
	return la
}

// trace folds the spans of one trace ID, already in start order.
func (la *layerAnalysis) trace(spans []span) {
	// Handler durations count wherever the span came from: replication
	// applies reach the replicas' stores under trace IDs of their own.
	for i := range spans {
		switch s := &spans[i]; s.Kind {
		case spanServer:
			la.serverHandles[s.Name] = append(la.serverHandles[s.Name], us(s.dur()))
		case spanStore:
			la.storeHandles[s.Name] = append(la.storeHandles[s.Name], us(s.dur()))
		}
	}
	if spans[0].Trace == 0 || spans[0].Kind != spanRoot {
		// Background work is the router's appliers replaying writes to
		// the replicas. Nothing reaches the front server that way, so a
		// front-side span without a root lost its navigator op.
		for i := range spans {
			if k := spans[i].Kind; k == spanClient || k == spanServer {
				la.orphans++
			}
		}
		return
	}

	// children[i] sums the durations of span i's direct children;
	// kids[i] counts them. open is the stack of spans not yet ended.
	children := make([]int64, len(spans))
	kids := make([]int, len(spans))
	open := []int{0}
	for i := 1; i < len(spans); i++ {
		s := &spans[i]
		for len(open) > 0 && spans[open[len(open)-1]].End < s.Start {
			open = open[:len(open)-1]
		}
		if len(open) == 0 {
			la.orphans++
			continue
		}
		parent := open[len(open)-1]
		if spans[parent].Kind != s.Kind-1 || s.End > spans[parent].End {
			la.orphans++
			continue
		}
		children[parent] += s.dur()
		kids[parent]++
		open = append(open, i)
	}

	root := &spans[0]
	la.roots[root.Name] = append(la.roots[root.Name], us(root.dur()))
	if children[0] > root.dur() {
		la.violations = append(la.violations, fmt.Sprintf("trace %d: navigator.%s took %dns but its client.calls %dns",
			root.Trace, root.Name, root.dur(), children[0]))
	}
	switch root.Name {
	case opOpen.String():
		la.openSelf = append(la.openSelf, us(root.dur()-children[0]))
	case opRead.String(), opStream.String():
		la.contentOps++
		if kids[0] == 0 {
			la.contentLocal = append(la.contentLocal, us(root.dur()))
		}
	}
	if root.Name != opProbe.String() {
		la.mainOps++
		la.mainRPCs += kids[0]
	}
	for i := 1; i < len(spans); i++ {
		s := &spans[i]
		switch s.Kind {
		case spanClient:
			c := class(s.Name)
			la.rpcs[c]++
			la.rpcBytes[c] += int64(s.Req) + int64(s.Resp)
			la.clientUs[c] = append(la.clientUs[c], us(s.dur()))
			if kids[i] == 1 {
				la.rpcMatched[c]++
				la.rpcSelf[c] += us(s.dur() - children[i])
			} else {
				la.orphans++
			}
		case spanServer:
			if kids[i] > 0 { // a router: its children are replica.calls
				w := 0
				if isWrite(s.Name) {
					w = 1
				}
				la.routed[w]++
				la.replicaCalls[w] += kids[i]
				la.routerSelf[w] = append(la.routerSelf[w], us(s.dur()-children[i]))
			}
		case spanReplica:
			la.replicaUs = append(la.replicaUs, us(s.dur()))
			if !isWrite(s.Name) && !s.Failed && strings.HasSuffix(s.Attr, "/primary") {
				la.primaryReads++
			}
		}
	}
}

// handleNames maps the catalogue's handler metrics to wire methods.
var handleNames = map[string]string{
	"mediastore.handle_us_p50.get_content":        transport.MethodGetContent,
	"mediastore.handle_us_p50.get_content_stream": transport.MethodGetContentStream,
	"mediastore.handle_us_p50.get_selected_doc":   transport.MethodGetDoc,
	"mediastore.handle_us_p50.doc_by_keyword":     transport.MethodDocByKeyword,
	"mediastore.handle_us_p50.keyword_tree":       transport.MethodKeywordTree,
	"mediastore.handle_us_p50.put_content":        transport.MethodPutContent,
	"mediastore.handle_us_p50.put_document":       transport.MethodPutDoc,
	"school.handle_us_p50.course":                 school.MethodCourse,
	"school.handle_us_p50.register":               school.MethodRegister,
	"school.handle_us_p50.enroll":                 school.MethodEnroll,
	"school.handle_us_p50.set_resume":             school.MethodSetResume,
	"school.handle_us_p50.get_resume":             school.MethodGetResume,
}

// metrics turns the analysis into the catalogue's per-layer values;
// the window supplies the byte and fetch tallies the spans do not carry.
func (la *layerAnalysis) metrics(w *window, into map[string]float64) {
	set := func(name string, vs []float64, q float64) {
		if len(vs) > 0 {
			sort.Float64s(vs)
			into[name] = percentile(vs, q)
		}
	}
	for _, op := range []opKind{opRegister, opCourses, opSearch, opTree, opRead, opOpen, opStream, opBookmark, opExit} {
		set("navigator.op_us_p50."+op.String(), la.roots[op.String()], 50)
	}
	for _, op := range []opKind{opRead, opSearch, opOpen} {
		set("navigator.op_us_p99."+op.String(), la.roots[op.String()], 99)
	}
	set("mheg.open_self_us", la.openSelf, 50)

	if la.contentOps > 0 {
		into["cache.hit_ratio"] = float64(len(la.contentLocal)) / float64(la.contentOps)
	}
	set("cache.hit_us", la.contentLocal, 50)
	if fetches := w.total(func(r *recorder) int64 { return r.fetches }); fetches > 0 {
		into["cache.evicted_refetch_share"] = float64(w.total(func(r *recorder) int64 { return r.refetches })) / float64(fetches)
	}

	for c, name := range []string{"rpc", "chunk"} {
		if la.rpcMatched[c] > 0 {
			into["transport.self_us_per_"+name] = la.rpcSelf[c] / float64(la.rpcMatched[c])
		}
	}
	set("transport.client_us_p50.small", la.clientUs[0], 50)
	set("transport.client_us_p99.small", la.clientUs[0], 99)
	set("transport.client_us_p50.chunk", la.clientUs[1], 50)
	into["transport.rpcs_per_op"] = ratio(float64(la.mainRPCs), float64(la.mainOps))
	if useful := w.total(func(r *recorder) int64 { return r.bytes }); useful > 0 {
		into["transport.payload_bytes_per_useful_byte"] = float64(la.rpcBytes[0]+la.rpcBytes[1]) / float64(useful)
	}

	// Behind a router the stores are the nodes; the front server's
	// spans of the same methods are the router's.
	for name, method := range handleNames {
		handles := la.serverHandles
		if strings.HasPrefix(name, "mediastore.") && len(la.storeHandles) > 0 {
			handles = la.storeHandles
		}
		set(name, handles[method], 50)
	}

	set("cluster.router_self_us.read", la.routerSelf[0], 50)
	set("cluster.router_self_us.write", la.routerSelf[1], 50)
	set("cluster.replica_call_us_p50", la.replicaUs, 50)
	if la.routed[0] > 0 {
		into["cluster.replica_calls_per_read"] = float64(la.replicaCalls[0]) / float64(la.routed[0])
		into["cluster.primary_read_share"] = float64(la.primaryReads) / float64(la.routed[0])
	}
	into["trace.orphan_spans"] = float64(la.orphans)
}

// chunkByteShare reports the share of client payload bytes that chunk
// RPCs carried — the layer-starvation check (≈1 on stream_cold, 0 on
// browse_hot).
func (la *layerAnalysis) chunkByteShare() float64 {
	return ratio(float64(la.rpcBytes[1]), float64(la.rpcBytes[0]+la.rpcBytes[1]))
}

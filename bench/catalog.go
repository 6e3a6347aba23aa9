package bench

import (
	"encoding/json"
	"fmt"
)

// The four workloads. Names are fixed: later issues cite them.
const (
	StreamCold = "stream_cold"
	BrowseHot  = "browse_hot"
	SessionMix = "session_mix"
	ClusterRW  = "cluster_rw"
)

// Workloads lists every workload with the one-line reason it exists
// (the line BENCHMARK.json carries).
var Workloads = []struct{ Name, Why string }{
	{StreamCold, "uncached 3.75 MB clips over one TCP store beside a paced 1 KB prober: transport and mediastore do all the work, cache/mheg/cluster none"},
	{BrowseHot, "Zipf reads of a 4 MB working set that fits the 64 MB cache plus search/list/tree RPCs: per-RPC cost and the cache hit path dominate, the byte path is idle"},
	{SessionMix, "whole student sessions (login, browse, enroll, open courseware, play, stream intro, bookmark, exit) over 90 MB of intros that evict the cache: the only workload where layers interact"},
	{ClusterRW, "Zipf reads beside 100 paced writes/s through a router over 2 shards x (primary + 2 replicas): read ladder and write replication share the layers, so neither can be sped up at the other's cost"},
}

var all = []string{StreamCold, BrowseHot, SessionMix, ClusterRW}

// Metric is one catalogue entry. Bound is the allowed worsening before
// a change counts as a regression: a share of the base value, or an
// absolute amount when Abs is set (rates expected to be zero).
type Metric struct {
	Name      string
	Unit      string
	Better    string // "lower" or "higher"
	Bound     float64
	Abs       bool
	Layer     string   // module the metric belongs to; "" for end-to-end
	Workloads []string // which workloads own (emit) it
}

// EndToEnd is what a student or publisher would see. The first 13 are
// the issue's (its fourteenth, interactive_us_p95, did not repeat within
// its bound on the reference host and lives in PerLayer, as the issue
// provides); the last two exist because the driver's contract wants
// every gated metric on every workload (see Contract).
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Workloads: all},
	{Name: "stream_mbps", Unit: "MB/s", Better: "higher", Bound: 0.20, Workloads: []string{StreamCold}},
	{Name: "ttff_us_p50", Unit: "us", Better: "lower", Bound: 0.20, Workloads: []string{StreamCold}},
	{Name: "deadline_miss_rate", Unit: "share", Better: "lower", Bound: 0.001, Abs: true, Workloads: []string{StreamCold}},
	{Name: "interactive_us_p50", Unit: "us", Better: "lower", Bound: 0.20, Workloads: []string{StreamCold}},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, Workloads: []string{BrowseHot, ClusterRW}},
	{Name: "op_us_p50", Unit: "us", Better: "lower", Bound: 0.20, Workloads: []string{BrowseHot}},
	{Name: "sessions_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, Workloads: []string{SessionMix}},
	{Name: "open_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20, Workloads: []string{SessionMix}},
	{Name: "read_us_p50", Unit: "us", Better: "lower", Bound: 0.20, Workloads: []string{ClusterRW}},
	{Name: "write_us_p50", Unit: "us", Better: "lower", Bound: 0.20, Workloads: []string{ClusterRW}},
	{Name: "cpu_us_per_unit", Unit: "us", Better: "lower", Bound: 0.20, Workloads: all},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0.001, Abs: true, Workloads: all},

	{Name: "rpc_us_p50", Unit: "us", Better: "lower", Bound: 0.20, Workloads: []string{BrowseHot}},
	{Name: "admin_us_p50", Unit: "us", Better: "lower", Bound: 0.20, Workloads: []string{SessionMix}},
}

// PerLayer is the per-module budget, measured in the traced pass (and
// by a few direct calls), plus the tails of the end-to-end latencies.
// No bounds: a layer metric explains an end-to-end move, it does not
// gate one.
var PerLayer = perLayer()

func perLayer() []Metric {
	var ms []Metric
	add := func(layer, unit string, on []string, names ...string) {
		for _, n := range names {
			ms = append(ms, Metric{Name: n, Unit: unit, Better: "lower", Layer: layer, Workloads: on})
		}
	}
	add("navigator", "us", []string{SessionMix},
		"navigator.op_us_p50.register", "navigator.op_us_p50.open", "navigator.op_us_p50.bookmark",
		"navigator.op_us_p50.exit", "navigator.op_us_p99.open")
	add("navigator", "us", []string{BrowseHot, SessionMix},
		"navigator.op_us_p50.courses", "navigator.op_us_p50.search", "navigator.op_us_p99.search")
	add("navigator", "us", []string{BrowseHot}, "navigator.op_us_p50.tree")
	add("navigator", "us", []string{BrowseHot, ClusterRW}, "navigator.op_us_p50.read", "navigator.op_us_p99.read")
	add("navigator", "us", []string{StreamCold, SessionMix}, "navigator.op_us_p50.stream")
	add("mheg", "us", []string{SessionMix}, "mheg.open_self_us", "mheg.decode_us")
	add("cache", "share", []string{BrowseHot, SessionMix}, "cache.hit_ratio", "cache.evicted_refetch_share")
	add("cache", "us", []string{BrowseHot, SessionMix}, "cache.hit_us")
	add("transport", "us", all, "transport.self_us_per_rpc", "transport.client_us_p50.small", "transport.client_us_p99.small")
	add("transport", "us", []string{StreamCold, SessionMix},
		"transport.self_us_per_chunk", "transport.client_us_p50.chunk",
		"transport.chunk_gap_us_p50", "transport.chunk_gap_us_p99")
	add("transport", "count", all, "transport.rpcs_per_op")
	add("transport", "ratio", all, "transport.payload_bytes_per_useful_byte")
	add("transport", "ns", []string{StreamCold}, "transport.chunk_codec_ns")
	add("mediastore", "us", []string{StreamCold, BrowseHot, ClusterRW}, "mediastore.handle_us_p50.get_content")
	add("mediastore", "us", []string{StreamCold, SessionMix}, "mediastore.handle_us_p50.get_content_stream")
	add("mediastore", "us", []string{SessionMix}, "mediastore.handle_us_p50.get_selected_doc")
	add("mediastore", "us", []string{BrowseHot, SessionMix}, "mediastore.handle_us_p50.doc_by_keyword")
	add("mediastore", "us", []string{BrowseHot}, "mediastore.handle_us_p50.keyword_tree")
	add("mediastore", "us", []string{ClusterRW}, "mediastore.handle_us_p50.put_content", "mediastore.handle_us_p50.put_document", "mediastore.put_us")
	add("mediastore", "ns", []string{StreamCold, ClusterRW}, "mediastore.borrow_ns")
	add("school", "us", []string{SessionMix},
		"school.handle_us_p50.course", "school.handle_us_p50.register", "school.handle_us_p50.enroll",
		"school.handle_us_p50.set_resume", "school.handle_us_p50.get_resume")
	add("cluster", "us", []string{ClusterRW}, "cluster.router_self_us.read", "cluster.router_self_us.write", "cluster.replica_call_us_p50")
	add("cluster", "count", []string{ClusterRW}, "cluster.replica_calls_per_read")
	add("cluster", "share", []string{ClusterRW}, "cluster.primary_read_share", "cluster.stale_read_share", "cluster.shard_read_skew")
	add("cluster", "ms", []string{ClusterRW}, "cluster.converge_ms")
	add("process", "count", all, "process.allocs_per_unit")
	add("process", "B", all, "process.alloc_bytes_per_unit")
	add("process", "ms", all, "process.gc_pause_ms")
	add("process", "MB", all, "process.heap_inuse_mb_peak")
	add("loadgen", "us", []string{StreamCold, ClusterRW}, "loadgen.late_us_p99")
	add("loadgen", "share", all, "trace.overhead_share")
	add("loadgen", "count", all, "trace.orphan_spans")
	// Beyond the issue's 56: the host's speed against the reference
	// loop's nominal, and the latency tails that do not repeat well
	// enough on a shared two-core host to gate anything.
	add("loadgen", "ratio", all, "loadgen.host_speed")
	add("tail", "us", []string{StreamCold}, "interactive_us_p95")
	add("tail", "us", []string{BrowseHot}, "rpc_us_p95")
	add("tail", "us", []string{SessionMix}, "admin_us_p95")
	add("tail", "us", []string{ClusterRW}, "write_us_p95")
	for i := range ms {
		if ms[i].Name == "cache.hit_ratio" || ms[i].Name == "loadgen.host_speed" {
			ms[i].Better = "higher"
		}
	}
	return ms
}

// ContractMetric is one end-to-end metric as the driver gates it. The
// driver wants every gated metric reported, non-zero, on every
// workload, while the issue's metrics belong to one or two workloads
// each; so each contract metric is a role, filled on each workload by
// the named metric that plays it there.
type ContractMetric struct {
	Name, Unit, Better string
	Bound              float64
	From               map[string]string // workload → EndToEnd metric name
}

// Contract is the end_to_end list of BENCHMARK.json.
var Contract = []ContractMetric{
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, From: map[string]string{
		StreamCold: "stream_mbps", BrowseHot: "ops_per_s", SessionMix: "sessions_per_s", ClusterRW: "ops_per_s"}},
	{Name: "latency_us_p50", Unit: "us", Better: "lower", Bound: 0.20, From: map[string]string{
		StreamCold: "ttff_us_p50", BrowseHot: "op_us_p50", SessionMix: "open_ms_p50", ClusterRW: "read_us_p50"}},
	{Name: "side_us_p50", Unit: "us", Better: "lower", Bound: 0.20, From: map[string]string{
		StreamCold: "interactive_us_p50", BrowseHot: "rpc_us_p50", SessionMix: "admin_us_p50", ClusterRW: "write_us_p50"}},
	{Name: "cpu_us_per_unit", Unit: "us", Better: "lower", Bound: 0.20, From: sameOnAll("cpu_us_per_unit")},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, From: sameOnAll("setup_s")},
}

func sameOnAll(name string) map[string]string {
	m := make(map[string]string, len(all))
	for _, w := range all {
		m[w] = name
	}
	return m
}

// contractLayers is the per_layer list of BENCHMARK.json: the layer
// catalogue plus the two end-to-end rates that are zero on a healthy
// host, which the driver's end_to_end list cannot hold.
func contractLayers() []Metric {
	out := append([]Metric(nil), PerLayer...)
	for _, m := range EndToEnd {
		if m.Abs {
			out = append(out, m)
		}
	}
	return out
}

// findMetric looks a name up in one list of the catalogue.
func findMetric(list []Metric, name string) (Metric, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// lookup finds a metric in either list; an end-to-end metric is the one
// whose Layer is empty.
func lookup(name string) (Metric, bool) {
	if m, ok := findMetric(EndToEnd, name); ok {
		return m, true
	}
	return findMetric(PerLayer, name)
}

func owns(m Metric, workload string) bool {
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// toUnit converts between the time units the catalogue mixes.
func toUnit(v float64, from, to string) float64 {
	scale := map[string]float64{"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1}
	f, okf := scale[from]
	t, okt := scale[to]
	if !okf || !okt {
		return v
	}
	return v * f / t
}

// RunSeconds is how long the driver lets one run measure.
const RunSeconds = 20

// Manifest renders BENCHMARK.json from the catalogue, so the file the
// driver reads and the names the program prints cannot drift apart (a
// test compares the checked-in file to this).
func Manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, c := range Contract {
		m.EndToEnd = append(m.EndToEnd, e2e{c.Name, c.Unit, c.Better, c.Bound})
	}
	for _, l := range contractLayers() {
		m.PerLayer = append(m.PerLayer, layer{l.Name, l.Unit, l.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: render manifest: %w", err)
	}
	return append(out, '\n'), nil
}

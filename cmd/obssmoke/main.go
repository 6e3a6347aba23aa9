// Command obssmoke is the end-to-end check of the observability
// subsystem, run by scripts/check.sh. In one process it wires the
// mitsd system, serves it over real TCP, issues a traced
// Get_Selected_Doc from a navigator-style DBClient, then scrapes the
// stats HTTP endpoint and verifies the acceptance contract:
//
//   - the client and server spans of that one RPC appear in the
//     exposition under a shared trace ID, server parented on client;
//   - the transport and mediastore latency histograms report non-zero
//     p50/p95/p99.
//
// A second leg wires the three-node trace pipeline (navigator → edge
// forwarder → store) with a span exporter shipping to a collector over
// the obs.Export RPC, and verifies over the collector's HTTP views
// that the assembled trace crosses every hop (both db.GetContent and
// the store-internal span in one tree, with a critical path) and that
// an unknown trace ID answers 404.
//
// Exit status 0 on success, 1 with a diagnosis on failure.
package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"mits"
	"mits/internal/cache"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/obs/collect"
	"mits/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "obssmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	if err := runTraceLeg(); err != nil {
		fmt.Fprintf(os.Stderr, "obssmoke: trace leg FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: ok")
}

func run() error {
	obs.SetSite("mitsd")

	sys := mits.NewSystem("Smoke TeleSchool")
	atmDoc, err := mits.SampleATMCourse()
	if err != nil {
		return err
	}
	if _, err := sys.PublishInteractive(atmDoc, mits.CourseInfo{
		Code: "ELG5121", Name: "ATM Technology", Program: "Engineering",
		DocName: "atm-course", Sessions: 4, Keywords: []string{"network/atm"},
	}); err != nil {
		return err
	}

	srv, bound, err := sys.ServeTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close() //mits:allow errdrop smoke teardown
	stats, err := obs.ServeStats("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer stats.Close()

	cli, err := transport.DialTCP(bound)
	if err != nil {
		return err
	}
	defer cli.Close() //mits:allow errdrop smoke teardown
	// The caller owns the root span, so it knows the trace ID to look
	// for in the server's exposition.
	root := obs.StartSpan("smoke.GetSelectedDoc", "internal")
	doc, err := transport.DBClient{C: cli, Trace: root.Context()}.GetSelectedDoc("atm-course")
	root.End(err)
	if err != nil {
		return fmt.Errorf("GetSelectedDoc: %w", err)
	}
	if len(doc.Data) == 0 {
		return fmt.Errorf("GetSelectedDoc returned an empty document")
	}
	trace := root.Trace

	resp, err := http.Get("http://" + stats.Addr + "/stats")
	if err != nil {
		return fmt.Errorf("scrape /stats: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	text := string(body)

	return verify(text, trace)
}

// runTraceLeg wires the cross-site trace pipeline end to end: three
// transport nodes over loopback TCP, a span exporter feeding a
// collector over the same RPC fabric, and the collector's HTTP views
// mounted on a stats endpoint — then checks the assembled trace from
// the outside, over HTTP, the way an operator would.
func runTraceLeg() error {
	store := mediastore.New()
	if err := store.PutContent("store/v.mpg", "MPEG", make([]byte, 32<<10)); err != nil {
		return err
	}
	storeMux := transport.NewMux()
	transport.RegisterStore(storeMux, store)
	storeSrv := transport.NewTCPServer(storeMux)
	storeAddr, err := storeSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer storeSrv.Close() //mits:allow errdrop smoke teardown

	up, err := transport.DialTCP(storeAddr)
	if err != nil {
		return err
	}
	defer up.Close() //mits:allow errdrop smoke teardown
	edge := transport.DBClient{C: up}.WithContentCache(cache.New("smoke-edge", 1<<20))
	edgeSrv := transport.NewTCPServer(transport.ForwardHandler{DB: edge})
	edgeAddr, err := edgeSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer edgeSrv.Close() //mits:allow errdrop smoke teardown

	// Collector with its views on a second stats endpoint (in a real
	// deployment this is `mitsd -collect ... -stats ...`).
	col := collect.NewCollector(collect.RetainPolicy{SlowThreshold: time.Nanosecond, SampleRate: 0})
	defer col.Close()
	colMux := transport.NewMux()
	col.Register(colMux)
	colSrv := transport.NewTCPServer(colMux)
	colAddr, err := colSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer colSrv.Close() //mits:allow errdrop smoke teardown
	stats, err := obs.ServeStatsMux("127.0.0.1:0", col.Mount)
	if err != nil {
		return err
	}
	defer stats.Close()

	exporter := collect.StartExporter(obs.Default, collect.Dial(colAddr), collect.ExporterOptions{Site: "smoke"})
	nav, err := transport.DialTCP(edgeAddr)
	if err != nil {
		exporter.Close()
		return err
	}
	defer nav.Close() //mits:allow errdrop smoke teardown
	req, err := transport.EncodeGetContent("store/v.mpg")
	if err != nil {
		exporter.Close()
		return err
	}
	root := obs.StartSpan("smoke.GetContent", "internal")
	_, err = nav.CallInTrace(root.Context(), transport.MethodGetContent, req)
	root.End(err)
	trace := root.Trace
	if err != nil {
		exporter.Close()
		return fmt.Errorf("GetContent through the edge: %w", err)
	}
	exporter.Flush()
	if err := exporter.Close(); err != nil {
		return err
	}
	col.Sweep(0)

	resp, err := http.Get("http://" + stats.Addr + "/trace?id=" + trace.String())
	if err != nil {
		return fmt.Errorf("scrape /trace: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("/trace?id=%s status %d: %s", trace, resp.StatusCode, body)
	}
	text := string(body)
	for _, want := range []string{"db.GetContent", "store.GetContent", "critical path:"} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("/trace view lacks %q:\n%s", want, text)
		}
	}

	resp404, err := http.Get("http://" + stats.Addr + "/trace?id=00000000000000ff")
	if err != nil {
		return err
	}
	resp404.Body.Close()
	if resp404.StatusCode != 404 {
		return fmt.Errorf("unknown trace ID answered %d, want 404", resp404.StatusCode)
	}
	return nil
}

// verify checks the scraped exposition text for the acceptance
// contract around the given trace.
func verify(text string, trace obs.TraceID) error {
	var clientSpan, serverSpan bool
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "span ") || !strings.Contains(line, "trace="+trace.String()) {
			continue
		}
		switch {
		case strings.Contains(line, "kind=client"):
			clientSpan = true
		case strings.Contains(line, "kind=server"):
			serverSpan = true
		}
	}
	if !clientSpan || !serverSpan {
		return fmt.Errorf("trace %s: client span %v, server span %v — want both in the exposition", trace, clientSpan, serverSpan)
	}

	for _, h := range []string{
		`hist transport_client_latency_ns{method="db.Get_Selected_Doc"}`,
		`hist transport_server_latency_ns{method="db.Get_Selected_Doc"}`,
		`hist mediastore_latency_ns{op="get_document"}`,
	} {
		line := findLine(text, h)
		if line == "" {
			return fmt.Errorf("exposition lacks %s", h)
		}
		for _, q := range []string{"p50_ns=", "p95_ns=", "p99_ns="} {
			v := fieldValue(line, q)
			if v <= 0 {
				return fmt.Errorf("%s: %s%d is not positive in %q", h, q, v, line)
			}
		}
	}
	return nil
}

func findLine(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// fieldValue extracts the integer following key ("p50_ns=") in a hist
// line, or -1.
func fieldValue(line, key string) int64 {
	i := strings.Index(line, key)
	if i < 0 {
		return -1
	}
	var v int64
	if _, err := fmt.Sscanf(line[i+len(key):], "%d", &v); err != nil {
		return -1
	}
	return v
}

package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// WriteText renders the registry in the line-oriented text exposition
// format (one metric per line, deterministic order):
//
//	counter <name> <value>
//	gauge <name> <value>
//	hist <name> count=<n> sum_ns=<n> p50_ns=<n> p95_ns=<n> p99_ns=<n>
//	span name=<q> kind=<k> trace=<16hex> id=<16hex> parent=<16hex> dur_ns=<n> err=<q>
//
// Durations are integral nanoseconds so the output is parseable with
// nothing smarter than a split. The span section holds the most
// recent finished spans (ring of 256), oldest first.
func (r *Registry) WriteText(w io.Writer) error {
	if site := r.Site(); site != "" {
		if _, err := fmt.Fprintf(w, "# mits exposition site=%s\n", site); err != nil {
			return err
		}
	}
	for _, c := range r.Counters() {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", c.Name(), c.Value()); err != nil {
			return err
		}
	}
	for _, g := range r.Gauges() {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", g.Name(), g.Value()); err != nil {
			return err
		}
	}
	for _, h := range r.Histograms() {
		s := h.Snapshot()
		if _, err := fmt.Fprintf(w, "hist %s count=%d sum_ns=%d p50_ns=%d p95_ns=%d p99_ns=%d\n",
			s.Name, s.Count, int64(s.Sum), int64(s.P50), int64(s.P95), int64(s.P99)); err != nil {
			return err
		}
	}
	for _, sp := range r.Spans() {
		if _, err := fmt.Fprintf(w, "span name=%q kind=%s trace=%s id=%s parent=%s dur_ns=%d err=%q\n",
			sp.Name, sp.Kind, sp.Trace, sp.ID, sp.Parent, int64(sp.Dur), sp.Err); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns the HTTP handler serving the text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = r.WriteText(w) // a scraper that hung up mid-read is its own problem
	})
}

// StatsServer is a running stats HTTP endpoint.
type StatsServer struct {
	Addr        string // bound address, e.g. "127.0.0.1:7122"
	srv         *http.Server
	lis         net.Listener
	stopSampler func()
}

// Close shuts the endpoint down immediately and stops the runtime
// sampler feeding its gauges.
func (s *StatsServer) Close() error {
	if s.stopSampler != nil {
		s.stopSampler()
		s.stopSampler = nil
	}
	return s.srv.Close()
}

// ServeStats exposes the Default registry over HTTP on addr
// ("127.0.0.1:0" picks a free port): GET /stats returns the text
// exposition, /metrics the Prometheus text format, /debug/pprof/* the
// runtime profiles, /healthz a bare 200. While the server runs, a
// background sampler publishes the runtime_* gauges and the
// runtime_gc_pause_ns histogram.
func ServeStats(addr string) (*StatsServer, error) {
	return ServeStatsMux(addr, nil)
}

// ServeStatsMux is ServeStats with a mount hook: when non-nil, mount
// runs on the endpoint's mux before serving starts, so a caller can
// attach extra views (the trace collector mounts /traces here) on the
// same port.
func ServeStatsMux(addr string, mount func(*http.ServeMux)) (*StatsServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: stats listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/stats", Default.Handler())
	mux.Handle("/metrics", Default.PromHandler())
	// pprof registers on http.DefaultServeMux via init; this server uses
	// its own mux, so mount the handlers explicitly. Note the server's
	// WriteTimeout below caps profile collection — use e.g.
	// /debug/pprof/profile?seconds=5 rather than the 30s default.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	if mount != nil {
		mount(mux)
	}
	s := &StatsServer{
		Addr: lis.Addr().String(),
		// Full timeout set: without Read/Write/Idle timeouts a client
		// that stops reading (or never finishes its request body) pins
		// a serving goroutine forever — the stats port must never be
		// the process's resource leak.
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      10 * time.Second,
			IdleTimeout:       60 * time.Second,
		},
		lis: lis,
	}
	s.stopSampler = startRuntimeSampler(Default, runtimeSampleInterval)
	go s.srv.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

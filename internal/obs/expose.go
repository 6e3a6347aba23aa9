package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

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
// ("127.0.0.1:0" picks a free port): GET /metrics returns the
// Prometheus text format, /debug/pprof/* the runtime profiles, /healthz
// a bare 200. When mount is non-nil it runs on the endpoint's mux
// before serving starts, so a caller can attach extra views on the same
// port (the trace collector mounts /traces, /trace and /slowest there).
// While the server runs, a background sampler publishes the runtime_*
// gauges and the runtime_gc_pause_ns histogram.
func ServeStats(addr string, mount func(*http.ServeMux)) (*StatsServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: stats listen: %w", err)
	}
	mux := http.NewServeMux()
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

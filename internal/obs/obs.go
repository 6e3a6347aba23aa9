// Package obs is the observability subsystem of the MITS sites:
// metrics, RPC trace spans and structured logging, built entirely on
// the standard library.
//
// The paper's five-site architecture (production → authoring →
// MEDIASTORE → navigator → facilitator) is a distributed system; the
// ROADMAP's "as fast as the hardware allows" goal needs numbers before
// it needs optimizations. This package provides them:
//
//   - a Registry of atomic counters, gauges and fixed-bucket latency
//     histograms whose snapshots report p50/p95/p99;
//   - lightweight trace spans whose IDs ride the transport frame
//     header, so one navigator Get_Selected_Doc can be followed from
//     the client module through the TCP/ATM carrier into MEDIASTORE;
//   - a slog-based structured logger carrying per-site component
//     fields, replacing ad-hoc log.Printf (enforced by the mitslint
//     logcheck analyzer).
//
// Every process has one Default registry; the package-level functions
// address it. Sites expose it over HTTP (ServeStats) in the Prometheus
// text format at /metrics; finished spans leave the process through
// SetSpanSink (the collect package's exporter hangs off it).
//
// Instrumentation is cheap by construction: counters and histograms
// are atomics, name lookup is one read-locked map access, and hot
// loops (ATM cell forwarding, the MHEG interpreter) cache the metric
// pointers they increment.
package obs

import "time"

// Default is the process-wide registry every package-level helper
// addresses. Separate processes (mitsd, navigator) naturally get
// separate registries; tests needing isolation call NewRegistry.
var Default = NewRegistry()

// GetCounter returns (creating if needed) a counter in the Default
// registry. Labels are alternating key/value pairs.
func GetCounter(name string, labels ...string) *Counter {
	return Default.Counter(name, labels...)
}

// GetGauge returns a gauge in the Default registry.
func GetGauge(name string, labels ...string) *Gauge {
	return Default.Gauge(name, labels...)
}

// GetHistogram returns a latency histogram in the Default registry.
func GetHistogram(name string, labels ...string) *Histogram {
	return Default.Histogram(name, labels...)
}

// Observe records one latency observation into a Default-registry
// histogram.
func Observe(name string, d time.Duration, labels ...string) {
	Default.Histogram(name, labels...).Observe(d)
}

// StartSpan opens a span on a fresh trace in the Default registry.
func StartSpan(name, kind string) *Span { return Default.StartSpan(name, kind) }

// ContinueSpan opens a span joining an existing trace (the ID arrived
// in a transport frame header) in the Default registry.
func ContinueSpan(name, kind string, trace TraceID, parent SpanID) *Span {
	return Default.ContinueSpan(name, kind, trace, parent)
}

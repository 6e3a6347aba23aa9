// Package spantest records finished spans for tests. Record installs a
// registry's one span sink for the length of a test, keeps every span
// with no eviction, and detaches the sink on t.Cleanup. The packages
// using it are safe with one sink per registry: none of their tests
// calls t.Parallel, and none attaches an exporter to obs.Default.
package spantest

import (
	"sync"
	"testing"

	"mits/internal/obs"
)

// Recorder holds the spans finished in a registry since Record.
type Recorder struct {
	mu    sync.Mutex
	spans []*obs.Span
}

// Record starts recording r's finished spans until t ends.
func Record(t testing.TB, r *obs.Registry) *Recorder {
	rec := &Recorder{}
	r.SetSpanSink(func(s *obs.Span) { rec.mu.Lock(); rec.spans = append(rec.spans, s); rec.mu.Unlock() })
	t.Cleanup(func() { r.SetSpanSink(nil) })
	return rec
}

// Of returns the spans of one trace (every span for trace 0) in the
// order they ended.
func (rec *Recorder) Of(trace obs.TraceID) (out []*obs.Span) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, s := range rec.spans {
		if trace == 0 || s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

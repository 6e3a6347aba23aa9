package collect

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"mits/internal/obs"
)

// Mount attaches the collector's views to an HTTP mux (typically the
// stats server's, via obs.ServeStats's mount hook):
//
//	/traces      — the flight recorder, newest first
//	/trace?id=   — one trace tree, children indented, critical path
//	/slowest     — retained traces by root duration, descending
func (c *Collector) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		traces := c.Retained()
		fmt.Fprintf(w, "# %d retained traces (%d assembling)\n", len(traces), c.PendingCount())
		for i := len(traces) - 1; i >= 0; i-- {
			writeSummary(w, traces[i])
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 16, 64)
		if err != nil {
			http.Error(w, "bad id: want 16 hex digits", http.StatusBadRequest)
			return
		}
		t := c.Get(obs.TraceID(id))
		if t == nil {
			http.Error(w, "trace not retained", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteTree(w, t)
	})
	mux.HandleFunc("/slowest", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		traces := c.Retained()
		sort.Slice(traces, func(i, j int) bool { return traces[i].Dur > traces[j].Dur })
		for _, t := range traces {
			writeSummary(w, t)
		}
	})
}

func writeSummary(w io.Writer, t *Trace) {
	name := "?"
	if t.Root != nil {
		name = t.Root.Name
	}
	fmt.Fprintf(w, "trace %s %-28s dur=%-12v spans=%-3d reason=%s\n",
		t.ID, name, t.Dur, len(t.Spans), t.Reason)
}

// WriteTree renders one trace: the span tree with children indented
// under parents (duration and site per line), then the critical path
// with each hop's self time and its share of the whole. The share
// column is the experiment's verdict line: the hop owning the latency
// owns the percentage.
func WriteTree(w io.Writer, t *Trace) {
	fmt.Fprintf(w, "trace %s dur=%v spans=%d reason=%s\n", t.ID, t.Dur, len(t.Spans), t.Reason)
	present := make(map[uint64]bool, len(t.Spans))
	for i := range t.Spans {
		present[t.Spans[i].ID] = true
	}
	children := make(map[uint64][]*SpanRecord, len(t.Spans))
	var roots []*SpanRecord
	for i := range t.Spans {
		sp := &t.Spans[i]
		if present[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var walk func(sp *SpanRecord, depth int)
	walk = func(sp *SpanRecord, depth int) {
		for i := 0; i < depth; i++ {
			io.WriteString(w, "  ")
		}
		fmt.Fprintf(w, "%s %s site=%s dur=%v", sp.Kind, sp.Name, sp.Site, time.Duration(sp.DurNS))
		if sp.Err != "" {
			fmt.Fprintf(w, " err=%q", sp.Err)
		}
		io.WriteString(w, "\n")
		for _, ch := range children[sp.ID] {
			walk(ch, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 1)
	}
	if len(t.Critical) > 0 && t.Dur > 0 {
		io.WriteString(w, "critical path:\n")
		for _, step := range t.Critical {
			share := 100 * float64(step.Self) / float64(t.Dur)
			fmt.Fprintf(w, "  %s %s site=%s self=%v share=%.1f%%\n",
				step.Span.Kind, step.Span.Name, step.Span.Site, step.Self, share)
		}
	}
}

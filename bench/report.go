package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Host records where a set of numbers was taken. Servers and clients
// live in one process and talk over the host's loopback TCP interface,
// so link rate and disk are not in any of them.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

// ThisHost fills the host block. The commit comes from the VCS stamp
// the go tool leaves in the binary; a checkout without git says so.
func ThisHost() Host {
	h := Host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Network: "loopback TCP, servers and clients in one process",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// Report is one invocation's full output: what -out writes as
// results.json and what -compare reads.
type Report struct {
	Host    Host      `json:"host"`
	Started time.Time `json:"started"`
	Results []*Result `json:"results"`
}

// Write saves the report as indented JSON.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report written by Write.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// ContractLine renders the one-line JSON object the driver reads last:
// every end_to_end metric of BENCHMARK.json for an untraced run, every
// per_layer metric for a traced one. A layer metric the workload does
// not own reads 0 there.
func (r *Result) ContractLine(traced bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if traced {
		for _, m := range contractLayers() {
			v := r.PerLayer[m.Name]
			if m.Layer == "" {
				v = r.EndToEnd[m.Name]
			}
			metrics[m.Name] = mv{v.Value, m.Unit}
		}
	} else {
		for _, c := range Contract {
			from := c.From[r.Workload]
			v, ok := r.EndToEnd[from]
			if !ok {
				return "", fmt.Errorf("bench: %s did not report %s (for %s)", r.Workload, from, c.Name)
			}
			metrics[c.Name] = mv{toUnit(v.Value, v.Unit, c.Unit), c.Unit}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, attempted, r.Failed, metrics})
	return string(line), err
}

package bench

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestManifestMatchesCheckedInFile(t *testing.T) {
	want, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not what the catalogue renders; regenerate it with\n\tgo -C bench run ./cmd/mitsbench -manifest > BENCHMARK.json")
	}
}

func TestCatalogueMeetsTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u, better string) {
		if !name.MatchString(n) {
			t.Errorf("%s %q is not a valid name", kind, n)
		}
		if !unit.MatchString(u) {
			t.Errorf("%s %q has invalid unit %q", kind, n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s %q: better = %q", kind, n, better)
		}
		if seen[n] {
			t.Errorf("%s %q is used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range Workloads {
		check("workload", w.Name, "x", "lower")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, c := range Contract {
		check("end_to_end", c.Name, c.Unit, c.Better)
		if c.Bound <= 0 || c.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", c.Name, c.Bound)
		}
		if c.Name == "setup_s" {
			setup = c.Unit == "s" && c.Better == "lower"
			for _, o := range Contract {
				if o.Bound > c.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
		for _, w := range all {
			src, ok := findMetric(EndToEnd, c.From[w])
			if !ok || !owns(src, w) || src.Abs {
				t.Errorf("end_to_end %s on %s comes from %q, which that workload does not own as a non-zero metric", c.Name, w, c.From[w])
			}
			if ok && src.Better != c.Better {
				t.Errorf("end_to_end %s on %s: %s is %s-is-better", c.Name, w, src.Name, src.Better)
			}
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in seconds, lower is better")
	}
	layers := contractLayers()
	if len(layers) < 1 || len(layers) > 128 {
		t.Errorf("%d per_layer metrics, want 1..128", len(layers))
	}
	for _, m := range layers {
		check("per_layer", m.Name, m.Unit, m.Better)
	}
	if len(EndToEnd) < 13 {
		t.Errorf("the catalogue lost an end-to-end metric: %d, want at least the issue's 14 less the demoted tail", len(EndToEnd))
	}
	if len(PerLayer) < 56 {
		t.Errorf("the catalogue lost a per-layer metric: %d, want at least the issue's 56", len(PerLayer))
	}
}

func TestReadmeCataloguesEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if !bytes.Contains(readme, []byte("`"+m.Name+"`")) {
				t.Errorf("README.md does not catalogue %s", m.Name)
			}
		}
	}
	for _, c := range Contract {
		if !bytes.Contains(readme, []byte("`"+c.Name+"`")) {
			t.Errorf("README.md does not explain the driver-facing metric %s", c.Name)
		}
	}
}

// The experiments are single-goroutine simulations on sim.Clock: this
// package, and the atm, sim, navigator, mheg and media code it drives,
// start no goroutine and open no socket, so the race detector has no
// concurrency to observe here — yet under it E17 and E23–E26 cost over
// two minutes of single-threaded simulation. The shape checks and the
// golden comparison run in the plain `go test ./...` pass only.

//go:build !race

package experiments

import (
	"os"
	"strings"
	"testing"
)

const goldenPath = "testdata/reports.golden"

// TestAllExperimentsPassShapeChecks runs every experiment E1–E26,
// requires each to reproduce its paper claim (Report.Pass), and holds
// the concatenated reports — exactly what cmd/experiments prints — to
// testdata/reports.golden byte for byte. This is the integration test
// for the whole evaluation harness. A missing fixture is written and
// the test fails once; a changed line means a reproduced number moved.
func TestAllExperimentsPassShapeChecks(t *testing.T) {
	seen := make(map[string]bool)
	var rendered []string
	for _, entry := range All() {
		t.Run(entry.ID, func(t *testing.T) {
			if seen[entry.ID] {
				t.Fatalf("duplicate experiment id %s", entry.ID)
			}
			seen[entry.ID] = true
			rep, err := entry.Run()
			if err != nil {
				t.Fatalf("%s failed: %v", entry.ID, err)
			}
			if rep.ID != entry.ID {
				t.Errorf("report id %q under entry %q", rep.ID, entry.ID)
			}
			if !rep.Pass {
				t.Errorf("%s shape check failed:\n%s", entry.ID, rep)
			}
			if len(rep.Rows) == 0 {
				t.Errorf("%s produced no rows", entry.ID)
			}
			if rep.Figure == "" || rep.Title == "" {
				t.Errorf("%s missing figure/title", entry.ID)
			}
			rendered = append(rendered, rep.String())
		})
	}
	// Count the registry, not `seen`: under a -run subtest filter only
	// the matching subtests execute, and the parent must not fail just
	// because the rest were skipped — nor compare a partial golden.
	if len(All()) != 26 {
		t.Errorf("%d experiments registered, want 26", len(All()))
	}
	if len(rendered) != len(All()) {
		return
	}
	checkGolden(t, strings.Join(rendered, "\n"))
}

func checkGolden(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote new fixture %s; review it and run again", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d changed\n got %q\nwant %q", goldenPath, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines rendered, fixture has %d", goldenPath, len(gotLines), len(wantLines))
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID: "EX", Figure: "Fig 0", Title: "test",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"row-cell-longer", "x"}},
		Notes:  []string{"a note"},
		Pass:   true,
	}
	s := r.String()
	for _, want := range []string{"EX", "long-header", "row-cell-longer", "note: a note", "PASS"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	// Only the columns before the last are padded: "x" under the wider
	// "long-header" must not drag trailing spaces into a golden file.
	for i, line := range strings.Split(s, "\n") {
		if strings.TrimRight(line, " ") != line {
			t.Errorf("line %d ends in spaces: %q", i+1, line)
		}
	}
	if !strings.Contains(s, "\n  row-cell-longer  x\n") {
		t.Errorf("last column padded or misaligned:\n%s", s)
	}
	r.Pass = false
	if !strings.Contains(r.String(), "FAIL") {
		t.Error("failing report renders without FAIL")
	}
}

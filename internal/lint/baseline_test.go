package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func diagAt(analyzer, file, msg string) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: 10, Column: 2},
		Message:  msg,
	}
}

// TestBaselineFilter covers the three fates of an entry: it suppresses
// a live finding, it goes stale when the finding disappears, and it is
// invalidated outright when its file is renamed away — even if an
// identical message now fires in another file.
func TestBaselineFilter(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.MkdirAll("pkg", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"pkg/live.go", "pkg/fixed.go", "pkg/renamed.go"} {
		if err := os.WriteFile(f, []byte("package pkg\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	b := &Baseline{Findings: []BaselineEntry{
		{Analyzer: "lockcheck", File: "pkg/live.go", Message: "field hits guarded by mu"},
		{Analyzer: "errdrop", File: "pkg/fixed.go", Message: "error discarded"},
		{Analyzer: "closecheck", File: "pkg/old.go", Message: "conn never closed"},
	}}

	diags := []Diagnostic{
		diagAt("lockcheck", "pkg/live.go", "field hits guarded by mu"),
		// Same analyzer+message as the pkg/old.go entry, but in a file
		// that exists: the dead entry must not suppress it.
		diagAt("closecheck", "pkg/renamed.go", "conn never closed"),
	}

	kept, suppressed, stale := b.Filter(diags)
	if suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", suppressed)
	}
	if len(kept) != 1 || kept[0].Pos.Filename != "pkg/renamed.go" {
		t.Errorf("kept = %v, want the pkg/renamed.go closecheck finding", kept)
	}
	if len(stale) != 2 {
		t.Fatalf("stale = %v, want 2 entries", stale)
	}
	byFile := map[string]StaleEntry{}
	for _, s := range stale {
		byFile[s.File] = s
	}
	if s, ok := byFile["pkg/fixed.go"]; !ok || s.Reason != StaleUnmatched {
		t.Errorf("pkg/fixed.go: got %+v, want StaleUnmatched", s)
	}
	if s, ok := byFile["pkg/old.go"]; !ok || s.Reason != StaleFileGone {
		t.Errorf("pkg/old.go: got %+v, want StaleFileGone", s)
	}
}

// TestBaselineRoundTrip: save, load, and filter back to empty — plus
// the missing-file and duplicate-collapse contracts.
func TestBaselineRoundTrip(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.WriteFile("a.go", []byte("package a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		diagAt("sleepless", "a.go", "time.Sleep in non-test code"),
		diagAt("sleepless", "a.go", "time.Sleep in non-test code"), // dup collapses
	}
	path := filepath.Join("sub", "does", "not", "matter.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveBaseline(path, diags); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Findings) != 1 {
		t.Fatalf("round-tripped findings = %v, want 1 entry", b.Findings)
	}
	kept, suppressed, stale := b.Filter(diags)
	if len(kept) != 0 || suppressed != 2 || len(stale) != 0 {
		t.Errorf("filter after round-trip: kept=%d suppressed=%d stale=%d, want 0/2/0", len(kept), suppressed, len(stale))
	}

	missing, err := LoadBaseline("no-such-file.json")
	if err != nil {
		t.Fatalf("missing baseline should be empty, not error: %v", err)
	}
	if len(missing.Findings) != 0 {
		t.Errorf("missing baseline has %d findings", len(missing.Findings))
	}
}

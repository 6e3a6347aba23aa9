// Package experiments implements the evaluation harness: one runnable
// experiment per figure and table of the paper (see DESIGN.md's
// per-experiment index E1–E26). Each experiment exercises the modules
// that implement the corresponding mechanism and returns a printable
// report; cmd/experiments prints them all, testdata/reports.golden
// pins that output byte for byte, and EXPERIMENTS.md records
// paper-vs-measured.
//
// The thesis reports no quantitative tables (its figures are
// architecture diagrams and screenshots), so each report reproduces the
// *behaviour* the figure depicts plus the measurable claims of the
// surrounding prose; comparative experiments (E15–E20) check the shape
// of who-wins relations. Every cell is a count, a byte size, a cell
// count or sim virtual time — never wall-clock time, which the
// benchmark module (bench/) measures — so the same tree prints the
// same reports on every run and every host.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Report is one experiment's result table.
type Report struct {
	ID     string // the Entry.ID it ran as, e.g. "E17"
	Figure string // paper figure/table reproduced
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Pass records the shape assertions that hold; a false value means
	// the reproduction diverges from the paper's claim.
	Pass bool
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): %s\n", r.ID, r.Figure, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	// Every column but the last is padded, so no line ends in spaces.
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) && i < len(cells)-1 {
				fmt.Fprintf(&b, "  %-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %s", c)
			}
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	fmt.Fprintf(&b, "  shape-check: %v\n", pass(r.Pass))
	return b.String()
}

func pass(p bool) string {
	if p {
		return "PASS"
	}
	return "FAIL"
}

// Entry pairs an experiment id with its runner.
type Entry struct {
	ID  string
	Run func() (*Report, error)
}

// All lists every experiment in order.
func All() []Entry {
	return []Entry{
		{"E1", E1Lifecycle},
		{"E2", E2Synchronization},
		{"E3", E3Interchange},
		{"E4", E4Pipeline},
		{"E5", E5Layers},
		{"E6", E6Processing},
		{"E7", E7ClientServer},
		{"E8", E8Authoring},
		{"E9", E9Hypermedia},
		{"E10", E10Scenario},
		{"E11", E11ClassLibrary},
		{"E12", E12CoursewareLib},
		{"E13", E13Mediastore},
		{"E14", E14Session},
		{"E15", E15MediaFormats},
		{"E16", E16Baselines},
		{"E17", E17Broadband},
		{"E18", E18ContentSeparation},
		{"E19", E19RuntimeReuse},
		{"E20", E20Facilitation},
		{"E21", E21HyTimePipeline},
		{"E22", E22ScriptedTeaching},
		{"E23", E23QoSAblation},
		{"E24", E24Conferencing},
		{"E25", E25InterMediaSync},
		{"E26", E26ABRFeedback},
	}
}

// helpers

func dur(d time.Duration) string { return d.Round(time.Microsecond).String() }

func bytesStr(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

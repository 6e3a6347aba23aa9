// Command mitslint runs the MITS static-analysis suite — the
// project-specific correctness invariants that plain `go vet` cannot
// know — over the packages matching the given patterns.
//
//	go run ./cmd/mitslint ./...
//
// Analyzers (see internal/lint/<name> for the full contract):
//
//	lockcheck     fields of mutex-protected structs touched without the lock
//	errdrop       discarded errors from transport/mediastore I/O
//	lifecycle     MHEG form (a)/(b)/(c) object life cycle violations
//	sleepless     time.Sleep synchronization in non-test code
//	logcheck      raw log.*/fmt.Print* output in internal packages
//	closecheck    closeable values never closed and never escaping
//	boundscheck   unguarded []byte indexing in decode paths
//	chanwait      blocking sends/receives the teardown path cannot wake
//	atomicmix     fields mixing sync/atomic with plain or mutex access
//	poolcheck     sync.Pool double-Put, use-after-Put, API escapes
//	deadlinecheck blocking transport/store calls with no reachable deadline
//	spancheck     trace spans that do not reach End on every path
//	lockorder     cycles in the module-wide lock-ordering graph
//
// All matched packages are summarized into one module-wide view
// (function summaries, interface calls resolved to every in-module
// implementation) before any analyzer runs, so lockorder sees
// cross-package lock order even though each cycle is reported by the
// package that owns its witness line.
//
// Diagnostics print in a deterministic order (by file, line, column,
// analyzer). Exit status is 1 when any unsuppressed diagnostic is
// reported, 2 on usage or load errors. Type errors in loaded packages
// are warnings: the analyzers run on what type-checks, and the build
// gate — not the linter — owns compilation failures.
//
// Suppression happens in the source and nowhere else: a //mits:allow
// <analyzer> comment (or //mits:nolock for lockcheck) on or above the
// flagged line, or in a function's doc comment for the whole function.
// A suppression that matches no finding of an analyzer that ran is a
// finding itself, so no suppression outlives the finding it excused.
// -only runs a comma-separated subset of analyzers, -list prints them,
// and -stats writes per-analyzer wall time and finding counts as JSON to
// the given path ("-" for stderr).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mits/internal/lint"
	"mits/internal/lint/suite"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	statsPath := flag.String("stats", "", "write per-analyzer wall time and finding counts as JSON to this path (\"-\" = stderr)")
	flag.Parse()

	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
			}
		}
		if len(filtered) == 0 {
			fatalf("no analyzer matches -only=%s", *only)
		}
		analyzers = filtered
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fatalf("%v", err)
	}

	var targets []*lint.Package
	for _, pkg := range pkgs {
		if !pkg.Root || pkg.Standard || isTestdata(pkg.ImportPath) {
			continue
		}
		targets = append(targets, pkg)
		for _, te := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "mitslint: warning: %s: type error: %v\n", pkg.ImportPath, te)
		}
	}
	if len(targets) == 0 {
		fatalf("patterns matched no packages: %s", strings.Join(patterns, " "))
	}

	// One module-wide view over every analyzed package: lockorder
	// resolves interface calls and stitches lock order across all of it,
	// then each per-package pass reports only the findings whose witness
	// line it owns.
	mod := lint.NewModule(targets)

	var diags []lint.Diagnostic
	stats := make([]analyzerStats, len(analyzers))
	for i, a := range analyzers {
		stats[i].Analyzer = a.Name
	}
	for _, pkg := range targets {
		for i, a := range analyzers {
			start := time.Now()
			ds, err := lint.RunWithModule(a, pkg, mod)
			stats[i].WallMS += float64(time.Since(start).Microseconds()) / 1000
			if err != nil {
				fatalf("%v", err)
			}
			stats[i].Findings += len(ds)
			diags = append(diags, ds...)
		}
	}
	for i := range diags {
		diags[i].Pos.Filename = rel(diags[i].Pos.Filename)
	}
	lint.SortDiags(diags)

	if *statsPath != "" {
		if err := writeStats(*statsPath, stats); err != nil {
			fatalf("%v", err)
		}
	}

	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mitslint: "+format+"\n", args...)
	os.Exit(2)
}

type analyzerStats struct {
	Analyzer string  `json:"analyzer"`
	Findings int     `json:"findings"`
	WallMS   float64 `json:"wall_ms"`
}

func writeStats(path string, stats []analyzerStats) error {
	for i := range stats {
		stats[i].WallMS = math.Round(stats[i].WallMS*1000) / 1000
	}
	data, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stderr.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// isTestdata guards against explicitly-named testdata packages (the
// ./... pattern already skips them).
func isTestdata(importPath string) bool {
	for _, seg := range strings.Split(importPath, "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

// rel shortens absolute diagnostic paths to the working directory.
func rel(filename string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, filename); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
	}
	return filename
}

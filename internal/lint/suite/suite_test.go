package suite

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mits/internal/lint"
	"mits/internal/lint/chanwait"
	"mits/internal/lint/lockorder"
	"mits/internal/lint/poolcheck"
)

// TestSuiteWellFormed pins the conventions every analyzer in the suite
// must follow: a distinct name, a non-empty doc string, and an
// analysistest-style package next to this one — <name>/testdata/src
// with want-annotated sources and a <name>_test.go that runs them.
func TestSuiteWellFormed(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("suite is empty")
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" {
			t.Error("analyzer with empty name")
			continue
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc string", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no run function", a.Name)
		}
		pkgDir := filepath.Join("..", a.Name)
		if fi, err := os.Stat(filepath.Join(pkgDir, "testdata", "src")); err != nil || !fi.IsDir() {
			t.Errorf("analyzer %s has no testdata/src package: %v", a.Name, err)
		}
		if _, err := os.Stat(filepath.Join(pkgDir, a.Name+"_test.go")); err != nil {
			t.Errorf("analyzer %s has no %s_test.go: %v", a.Name, a.Name, err)
		}
	}
}

// TestSuiteConcurrencyAnalyzersRegistered pins the concurrency-protocol
// analyzers into the suite: the four that check the channel, atomic,
// pool and deadline protocols must stay registered, or mitslint
// silently stops guarding the multiplexed hot path.
func TestSuiteConcurrencyAnalyzersRegistered(t *testing.T) {
	want := []string{"chanwait", "atomicmix", "poolcheck", "deadlinecheck"}
	have := make(map[string]bool)
	for _, a := range All() {
		have[a.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("suite is missing the %s analyzer", name)
		}
	}
}

// TestChanwaitGuardsTransportEnqueue is the PR-5 sendq-hang tripwire,
// run cross-package: chanwait over the real transport package must
// stay clean. The fix it guards is the `case <-pc.done:` arm of
// TCPClient.issue's enqueue select — revert it and chanwait reports
// the select as deaf to its completion channel, failing this test
// before any stress run has to reproduce the hang. The firing shape
// itself is pinned in chanwait/testdata/src/regress.
func TestChanwaitGuardsTransportEnqueue(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks internal/transport")
	}
	pkgs, err := lint.Load("", "mits/internal/transport")
	if err != nil {
		t.Fatalf("loading transport: %v", err)
	}
	checked := false
	for _, pkg := range pkgs {
		if pkg.ImportPath != "mits/internal/transport" {
			continue
		}
		checked = true
		diags, err := lint.Run(chanwait.Analyzer, pkg)
		if err != nil {
			t.Fatalf("chanwait over transport: %v", err)
		}
		for _, d := range diags {
			t.Errorf("chanwait finding in transport (PR-5 hang class regressed?): %s", d.String())
		}
	}
	if !checked {
		t.Fatal("mits/internal/transport not among loaded packages")
	}
}

// TestPoolcheckGuardsTransportOwnership is the immutable-bytes-handoff
// tripwire: with pooled response buffers flowing out of readLoop into
// MHEG decode and the content cache with no copy at the boundary, the
// whole safety argument is the ownership discipline poolcheck verifies
// (no use after releaseFrame/putBuf, release on every path). The real
// transport package must stay clean — a new code path that touches a
// released buffer fails this test before the race detector has to
// catch the recycled-buffer corruption at runtime.
func TestPoolcheckGuardsTransportOwnership(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks internal/transport")
	}
	pkgs, err := lint.Load("", "mits/internal/transport")
	if err != nil {
		t.Fatalf("loading transport: %v", err)
	}
	checked := false
	for _, pkg := range pkgs {
		if pkg.ImportPath != "mits/internal/transport" {
			continue
		}
		checked = true
		diags, err := lint.Run(poolcheck.Analyzer, pkg)
		if err != nil {
			t.Fatalf("poolcheck over transport: %v", err)
		}
		for _, d := range diags {
			t.Errorf("poolcheck finding in transport (pooled-buffer ownership regressed?): %s", d.String())
		}
	}
	if !checked {
		t.Fatal("mits/internal/transport not among loaded packages")
	}
}

// TestSuiteInterproceduralAnalyzersRegistered pins the module-wide
// layer into the suite: lockorder only sees cross-package inversions
// when it actually runs, so its registration is itself an invariant.
func TestSuiteInterproceduralAnalyzersRegistered(t *testing.T) {
	want := []string{"lockorder"}
	have := make(map[string]bool)
	for _, a := range All() {
		have[a.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("suite is missing the %s analyzer", name)
		}
	}
}

// TestSuiteDocumented holds every list of the analyzers to the
// registry: mitslint's doc comment, DESIGN §7's bullets and README's
// table must each name exactly the analyzers suite.All() runs.
func TestSuiteDocumented(t *testing.T) {
	var want []string
	for _, a := range All() {
		want = append(want, a.Name)
	}
	slices.Sort(want)
	for _, doc := range []struct {
		file, from, to string
		item           *regexp.Regexp
	}{
		{"cmd/mitslint/main.go", "// Analyzers", "\npackage main", regexp.MustCompile(`(?m)^//\t([a-z]+) +\S`)},
		{"DESIGN.md", "\n## 7.", "\n## 8.", regexp.MustCompile(`(?m)^- \*\*([a-z]+)\*\* —`)},
		{"README.md", "| analyzer | invariant |", "\n\n", regexp.MustCompile(`(?m)^\| ([a-z]+) \| [^-]`)},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "..", doc.file))
		if err != nil {
			t.Fatal(err)
		}
		_, section, ok := strings.Cut(string(data), doc.from)
		section, _, _ = strings.Cut(section, doc.to)
		if !ok {
			t.Errorf("%s: no %q section", doc.file, doc.from)
			continue
		}
		var got []string
		for _, m := range doc.item.FindAllStringSubmatch(section, -1) {
			got = append(got, m[1])
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s lists %v, suite.All() runs %v", doc.file, got, want)
		}
	}
}

// TestLockorderGuardsDeliveryPath is this PR's cross-package tripwire:
// the module-wide lock-ordering graph over transport writeLoop,
// collector finalize, and cache singleflight must stay acyclic. A new
// call edge that closes a cycle — say collector finalize shipping
// through an exporter that re-enters the collector, the shape pinned
// in lockorder/testdata/src/regress — fails this test before any
// stress run has to hit the deadlock.
func TestLockorderGuardsDeliveryPath(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the delivery path")
	}
	// The delivery-path packages — transport, trace collection, the
	// cache, the metrics layer they all call into under their locks, and
	// the cluster router whose replMu and applier locks nest around
	// transport calls — as one module, the way mitslint sees them. obs
	// must be in it or the cache→obs and transport→obs held-lock call
	// edges dangle and the ordering graph goes blind exactly where the
	// cross-package risk is.
	patterns := []string{
		"mits/internal/transport",
		"mits/internal/obs",
		"mits/internal/obs/collect",
		"mits/internal/cache",
		"mits/internal/cluster",
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		t.Fatalf("loading delivery path: %v", err)
	}
	var roots []*lint.Package
	for _, pkg := range pkgs {
		if slices.Contains(patterns, pkg.ImportPath) {
			roots = append(roots, pkg)
		}
	}
	if len(roots) != len(patterns) {
		t.Fatalf("loaded %d of %d delivery-path packages", len(roots), len(patterns))
	}
	mod := lint.NewModule(roots)
	for _, pkg := range roots {
		diags, err := lint.RunWithModule(lockorder.Analyzer, pkg, mod)
		if err != nil {
			t.Fatalf("lockorder over %s: %v", pkg.ImportPath, err)
		}
		for _, d := range diags {
			t.Errorf("lock-order cycle in delivery path: %s", d.String())
		}
	}
	if len(mod.LockEdges()) == 0 {
		t.Error("lock-ordering graph over the delivery path is empty; summary extraction regressed")
	}
}

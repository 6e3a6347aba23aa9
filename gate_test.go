package mits

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestE31Accept holds the E31 gate decision — the one enforced pair of
// benchmark bits, which make cluster applies to what
// BenchmarkE31ClusterAvailability measured — to its table.
func TestE31Accept(t *testing.T) {
	const ms = 1e6
	for _, tc := range []struct {
		name   string
		stages [3]e31Stage
		pass   bool
	}{
		{"all reads ok, ratio 1.05",
			[3]e31Stage{{300, 300, 1 * ms}, {300, 300, 1.05 * ms}, {300, 300, 1.2 * ms}}, true},
		{"one failed read at one-down",
			[3]e31Stage{{300, 300, 1 * ms}, {299, 300, 1.05 * ms}, {300, 300, 1.2 * ms}}, false},
		{"one-down p99 3.01x healthy",
			[3]e31Stage{{300, 300, 1 * ms}, {300, 300, 3.01 * ms}, {300, 300, 1.2 * ms}}, false},
		{"one-down p99 exactly 3x healthy",
			[3]e31Stage{{300, 300, 1 * ms}, {300, 300, 3 * ms}, {300, 300, 1.2 * ms}}, true},
		{"two-down failures and latency are not gated",
			[3]e31Stage{{300, 300, 1 * ms}, {300, 300, 1.05 * ms}, {120, 300, 50 * ms}}, true},
		{"discovery run: one sample is no p99",
			[3]e31Stage{{1, 1, 1 * ms}, {1, 1, 10 * ms}, {1, 1, 1 * ms}}, true},
		{"discovery run: a failed read still fails",
			[3]e31Stage{{1, 1, 1 * ms}, {0, 1, 1 * ms}, {1, 1, 1 * ms}}, false},
	} {
		err := e31Accept(tc.stages)
		if (err == nil) != tc.pass {
			t.Errorf("%s: pass=%v, want %v (err: %v)", tc.name, err == nil, tc.pass, err)
		}
		if err == nil {
			continue
		}
		// The failure is evidence, not a bit: every stage's counts and p99.
		for down, st := range tc.stages {
			want := fmt.Sprintf("%d down: %d/%d reads ok, p99 %s", down, st.ok, st.total, time.Duration(st.p99))
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error lacks %q:\n%v", tc.name, want, err)
			}
		}
	}
}

// TestGateListsResolve reads the three files that define the gates and
// fails when one of them names something that is not there: a script,
// a make target, a `go run ./<dir>` command, or — the case go test
// itself reports as "no tests to run" and exit 0 — a test, fuzzer or
// benchmark in a -run/-fuzz/-bench list that the package on that line
// no longer has.
func TestGateListsResolve(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\w+):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	checked := 0
	for _, file := range []string{"Makefile", "scripts/check.sh", ".github/workflows/check.yml"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			errs, n := unresolvedGateRefs(t, line, targets)
			checked += n
			for _, e := range errs {
				t.Errorf("%s:%d: %s", file, i+1, e)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run/-fuzz/-bench list to check: the gate files changed shape under this test")
	}

	// A command deleted while a gate file still runs it fails here, not
	// minutes into check.sh.
	if errs, _ := unresolvedGateRefs(t, "go run ./cmd/no-such-command ./...", targets); len(errs) != 1 {
		t.Errorf("go run of a missing directory resolved: %q", errs)
	}
}

var (
	scriptRef = regexp.MustCompile(`scripts/[\w.-]+\.sh`)
	makeRef   = regexp.MustCompile(`\bmake (\w+)`)
	goRunRef  = regexp.MustCompile(`\bgo run (\./[\w./-]*)`)
	listFlag  = regexp.MustCompile(`-(?:run|fuzz|bench)[= ]'?([^' ]+)`)
	pkgArg    = regexp.MustCompile(` (\.[\w./-]*)\s*$`)
)

// unresolvedGateRefs reports what one gate-file line names that does
// not exist, and how many test, fuzzer and benchmark names it checked.
func unresolvedGateRefs(t *testing.T, line string, targets map[string]bool) (errs []string, checked int) {
	t.Helper()
	for _, script := range scriptRef.FindAllString(line, -1) {
		if _, err := os.Stat(script); err != nil {
			errs = append(errs, fmt.Sprintf("names %s, which does not exist", script))
		}
	}
	for _, m := range makeRef.FindAllStringSubmatch(line, -1) {
		if !targets[m[1]] {
			errs = append(errs, fmt.Sprintf("calls make %s, which the Makefile does not define", m[1]))
		}
	}
	for _, m := range goRunRef.FindAllStringSubmatch(line, -1) {
		if srcs, _ := filepath.Glob(filepath.Join(m[1], "*.go")); len(srcs) == 0 {
			errs = append(errs, fmt.Sprintf("runs go run %s, which holds no Go source", m[1]))
		}
	}
	if !strings.Contains(line, "go test") {
		return errs, 0
	}
	for _, m := range listFlag.FindAllStringSubmatch(line, -1) {
		pkg := pkgArg.FindStringSubmatch(line)
		if pkg == nil || strings.HasSuffix(pkg[1], "...") {
			errs = append(errs, fmt.Sprintf("cannot tell which one package %q selects from", m[0]))
			continue
		}
		funcs := testFuncs(t, pkg[1])
		for _, name := range strings.Split(m[1], "|") {
			name, _, _ = strings.Cut(name, "/") // a subtest path selects within its parent
			if name == "NONE" || name == "." {
				continue
			}
			checked++
			if !slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) }) {
				errs = append(errs, fmt.Sprintf("%s matches no test, fuzzer or benchmark in %s", name, pkg[1]))
			}
		}
	}
	return errs, checked
}

// testFuncs lists the Test*, Fuzz* and Benchmark* functions declared
// in dir's test files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}

package mits

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

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

// TestBenchmarksHaveReaders fails when a Benchmark* in the main
// module's test files (bench/ is its own module) is named by no gate
// file and no document: a number nothing runs or reads is a second
// measurement estate, and it goes, or a gate or document says why it
// stays.
func TestBenchmarksHaveReaders(t *testing.T) {
	var readers []byte
	for _, file := range []string{"Makefile", "scripts/check.sh", ".github/workflows/check.yml", "DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, data...)
	}
	benchmarks := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		for _, name := range testFuncs(t, path) {
			if !strings.HasPrefix(name, "Benchmark") {
				continue
			}
			benchmarks++
			if !regexp.MustCompile(`\b` + name + `\b`).Match(readers) {
				t.Errorf("%s in %s is named by no gate file and no document: delete it or name its reader", name, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if benchmarks == 0 {
		t.Fatal("found no benchmark to check: the tree changed shape under this test")
	}
}

// testInfra is what only tests may link: the fault injector, the span
// recorder, the wire-script recorder and the goroutine-leak check.
var testInfra = []string{
	"mits/internal/faults",
	"mits/internal/obs/spantest",
	"mits/internal/transport/wiretest",
	"mits/internal/lint/leaktest",
}

// TestBinariesLinkNoTestInfra fails when the facade, a command or an
// example depends on test infrastructure, and prints the import chain
// that pulls it in.
func TestBinariesLinkNoTestInfra(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}} {{.DepOnly}} {{join .Imports \" \"}}", ".", "./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imports := map[string][]string{}
	var roots []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		imports[f[0]] = f[2:]
		if f[1] == "false" {
			roots = append(roots, f[0])
		}
	}
	for _, root := range roots {
		// Breadth-first from the root, keeping each package's parent so
		// a hit prints its shortest chain.
		parent := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			if slices.Contains(testInfra, pkg) {
				chain := []string{pkg}
				for p := parent[pkg]; p != ""; p = parent[p] {
					chain = append([]string{p}, chain...)
				}
				t.Errorf("%s links test infrastructure: %s", root, strings.Join(chain, " → "))
				continue
			}
			for _, dep := range imports[pkg] {
				if _, seen := parent[dep]; !seen {
					parent[dep] = pkg
					queue = append(queue, dep)
				}
			}
		}
	}
	if len(roots) == 0 {
		t.Fatal("go list named no packages")
	}
}

// TestEveryMainIsRun fails when a main package under cmd/ or examples/
// is run by nothing: each must be built and run by
// TestSessionTranscript (sessionMains) or be named in
// mainsRunElsewhere with what runs it. A new command or example joins
// the transcript; a deleted one leaves both lists.
func TestEveryMainIsRun(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := map[string]bool{}
	for _, path := range strings.Fields(string(out)) {
		mains[strings.TrimPrefix(path, "mits/")] = true
	}
	if len(mains) == 0 {
		t.Fatal("go list named no main package")
	}
	for m := range mains {
		_, elsewhere := mainsRunElsewhere[m]
		if inSession := slices.Contains(sessionMains, m); inSession == elsewhere {
			t.Errorf("%s: in the session transcript = %v, run elsewhere = %v; it must be exactly one", m, inSession, elsewhere)
		}
	}
	for _, m := range sessionMains {
		if !mains[m] {
			t.Errorf("the session transcript builds %s, which is not a main package", m)
		}
	}
	for m := range mainsRunElsewhere {
		if !mains[m] {
			t.Errorf("mainsRunElsewhere names %s, which is not a main package", m)
		}
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

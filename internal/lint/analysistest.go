package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// RunTest mirrors x/tools' analysistest.Run: it loads the package
// directories under testdataDir/src, runs the analyzer over the
// pattern-named packages, and matches every diagnostic against the
// `// want "regexp"` comments in the sources. Each want comment
// expects one diagnostic on its own line; several quoted regexps on
// one comment expect several diagnostics. Lines with diagnostics but
// no matching want, and wants with no matching diagnostic, fail the
// test.
//
// The wants are regexps and may be loose, so RunTest also compares the
// full text of every diagnostic, one `file:line:col: analyzer: message`
// line each, with testdataDir/<pkgdirs joined by "_">.golden. Paths
// are relative to the test's directory. A missing golden is written and
// the test fails once, as wire.golden is: delete it to regenerate.
func RunTest(t *testing.T, testdataDir string, a *Analyzer, pkgdirs ...string) {
	t.Helper()
	patterns := make([]string, 0, len(pkgdirs))
	for _, d := range pkgdirs {
		patterns = append(patterns, "./src/"+d)
	}
	pkgs, err := Load(testdataDir, patterns...)
	if err != nil {
		t.Fatalf("load testdata: %v", err)
	}
	// One module over all pattern-named packages, so interprocedural
	// analyzers see cross-package testdata the way mitslint sees the
	// real tree.
	var roots []*Package
	for _, pkg := range pkgs {
		if pkg.Root {
			roots = append(roots, pkg)
		}
	}
	mod := NewModule(roots)
	ran := false
	var all []Diagnostic
	for _, pkg := range pkgs {
		if !pkg.Root {
			continue
		}
		ran = true
		for _, te := range pkg.TypeErrors {
			t.Errorf("testdata package %s has type error: %v", pkg.ImportPath, te)
		}
		diags, err := RunWithModule(a, pkg, mod)
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		checkWants(t, pkg, diags)
		all = append(all, diags...)
	}
	if !ran {
		t.Fatalf("no packages loaded for %v in %s", pkgdirs, testdataDir)
	}
	checkGolden(t, filepath.Join(testdataDir, strings.Join(pkgdirs, "_")+".golden"), all)
}

// checkGolden compares the diagnostics' text with the golden at path.
func checkGolden(t *testing.T, path string, diags []Diagnostic) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	SortDiags(diags)
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	// Messages may quote positions too; strip the directory everywhere.
	got := strings.ReplaceAll(b.String(), wd+string(filepath.Separator), "")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote new golden %s; review it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s (delete it and rerun to regenerate)\ngot:\n%swant:\n%s", path, got, want)
	}
}

type want struct {
	pos token.Position
	re  *regexp.Regexp
	hit bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range splitQuoted(m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{pos: pos, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.pos.Filename != d.Pos.Filename || w.pos.Line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %v", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.pos.Filename, w.pos.Line, w.re)
		}
	}
}

// splitQuoted extracts the double- or back-quoted strings of a want
// comment tail, e.g. `"foo.*" "bar"` → [foo.*, bar].
func splitQuoted(s string) []string {
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		q, err := strconv.QuotedPrefix(s)
		if err != nil || q[0] == '\'' {
			return out
		}
		uq, _ := strconv.Unquote(q)
		out = append(out, uq)
		s = s[len(q):]
	}
	return out
}

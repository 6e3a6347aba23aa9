// Package lint is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) plus a package loader built on `go list` and go/types.
//
// The container this repo grows in has no module proxy access, so the
// real x/tools framework cannot be vendored; this package keeps the
// same shape — an Analyzer is a named Run function over a type-checked
// package, reporting position-tagged diagnostics — so the
// project-specific analyzers under internal/lint/... would port to
// x/tools unchanged.
//
// Suppression: a diagnostic is dropped when the flagged line (or the
// line above it) carries a `//mits:allow <name>` comment naming the
// analyzer, or the legacy `//mits:nolock` spelling for lockcheck. The
// same comment in a function's doc comment covers the whole function.
// A suppression that covers none of its analyzer's findings is itself
// reported, so the comments cannot outlive what they excuse.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg    *Package
	mod    *Module
	diags  []Diagnostic
	allows []*allow // this analyzer's in-source suppressions
}

// allow is one in-source suppression naming the pass's analyzer: the
// comment's own line and the next, or a whole function when it sits
// in the function's doc comment.
type allow struct {
	pos      token.Position // the comment
	from, to int            // covered lines of pos.Filename
	used     bool
}

// Module returns the whole-module view the pass runs under. Drivers
// that analyze many packages (mitslint, RunTest) share one Module
// across every pass; a bare Run falls back to a single-package module,
// which keeps package-local invocations working with package-local
// vision.
func (p *Pass) Module() *Module {
	if p.mod == nil {
		p.mod = NewModule([]*Package{p.pkg})
	}
	return p.mod
}

var allowRe = regexp.MustCompile(`^//\s*mits:(nolock|allow\s+([\w,-]+))`)

func parseAllow(comment string) []string {
	m := allowRe.FindStringSubmatch(comment)
	if m == nil {
		return nil
	}
	if m[1] == "nolock" {
		return []string{"lockcheck"}
	}
	return strings.Split(m[2], ",")
}

// buildAllows indexes every suppression comment that names this
// pass's analyzer.
func (p *Pass) buildAllows() {
	byComment := make(map[*ast.Comment]*allow)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range parseAllow(c.Text) {
					if name == p.Analyzer.Name {
						pos := p.Fset.Position(c.Pos())
						a := &allow{pos: pos, from: pos.Line, to: pos.Line + 1}
						byComment[c] = a
						p.allows = append(p.allows, a)
					}
				}
			}
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if a := byComment[c]; a != nil {
						a.to = p.Fset.Position(fd.End()).Line
					}
				}
			}
		}
	}
}

// allowedAt reports whether a suppression covers pos, and marks every
// suppression that does as used.
func (p *Pass) allowedAt(pos token.Position) bool {
	hit := false
	for _, a := range p.allows {
		if a.pos.Filename == pos.Filename && a.from <= pos.Line && pos.Line <= a.to {
			a.used = true
			hit = true
		}
	}
	return hit
}

// Reportf records a diagnostic unless a suppression covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies one analyzer to one loaded package with single-package
// vision (the Module, if the analyzer asks for one, covers only pkg).
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return RunWithModule(a, pkg, nil)
}

// RunWithModule applies one analyzer to one loaded package under a
// shared whole-module view. mod may be nil; the pass then builds a
// single-package module on first use. Every suppression of this
// analyzer that covered none of its findings is returned as a finding
// too.
func RunWithModule(a *Analyzer, pkg *Package, mod *Module) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		pkg:       pkg,
		mod:       mod,
	}
	pass.buildAllows()
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	for _, al := range pass.allows {
		if !al.used {
			pass.diags = append(pass.diags, Diagnostic{
				Analyzer: a.Name,
				Pos:      al.pos,
				Message:  "suppression matches no " + a.Name + " finding — delete it",
			})
		}
	}
	SortDiags(pass.diags)
	return pass.diags, nil
}

// SortDiags orders diagnostics by file, line, column, analyzer and
// message, so output is stable under load order and scheduling.
func SortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Standard   bool // part of the Go distribution
	Root       bool // named by the Load patterns (vs. pulled in as a dep)

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	TypeErrors []error
}

// listedPkg mirrors the fields of `go list -json` the loader consumes.
type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	Error      *listedErr
}

// listedErr is the Error object `go list -e` attaches to packages (and
// to pattern stubs) it could not resolve.
type listedErr struct {
	Err string
}

func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	// Analysis wants the pure-Go view of every package; cgo files would
	// need a C toolchain pass the type checker cannot do.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, errBuf.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(&out)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decode: %v", args, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// mapImporter resolves imports against already-checked packages, with a
// per-package vendor/import remapping from `go list`.
type mapImporter struct {
	importMap map[string]string
	checked   map[string]*types.Package
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("lint: import %q not loaded", path)
}

// Load type-checks the packages matching patterns (resolved relative to
// dir, "" meaning the current directory) together with every
// dependency, building all type information from source — the loader
// never needs export data, a module proxy, or the network.
//
// The returned slice holds all packages in dependency order; callers
// usually filter on Root (the pattern-named packages) and !Standard.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	// Two listings: -deps for the full graph in dependency order, and a
	// plain one to learn which import paths the patterns denote.
	deps, err := goList(dir, append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	roots, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	isRoot := make(map[string]bool, len(roots))
	for _, r := range roots {
		isRoot[r.ImportPath] = true
	}

	fset := token.NewFileSet()
	checked := make(map[string]*types.Package, len(deps))
	sizes := types.SizesFor("gc", runtime.GOARCH)
	var out []*Package

	for _, lp := range deps {
		if lp.ImportPath == "unsafe" {
			checked["unsafe"] = types.Unsafe
			continue
		}
		// A nameless entry with an Error is a pattern stub (`go list -e`
		// reports a bad pattern this way instead of failing) — surface it
		// rather than analyzing zero packages successfully.
		if lp.Error != nil && lp.Name == "" {
			return nil, fmt.Errorf("lint: %s", lp.Error.Err)
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		var typeErrs []error
		conf := types.Config{
			Importer: mapImporter{importMap: lp.ImportMap, checked: checked},
			Sizes:    sizes,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, _ := conf.Check(lp.ImportPath, fset, files, info)
		checked[lp.ImportPath] = tpkg
		out = append(out, &Package{
			ImportPath: lp.ImportPath,
			Standard:   lp.Standard,
			Root:       isRoot[lp.ImportPath],
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
			TypeErrors: typeErrs,
		})
	}
	return out, nil
}

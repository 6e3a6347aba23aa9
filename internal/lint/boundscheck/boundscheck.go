// Package boundscheck flags []byte indexing in decode paths that no
// length guard dominates.
//
// The byte-level decoders — transport frames, AAL5 trailers, the MHEG
// binary codec — are the code that hostile or truncated input reaches
// first, and an unguarded data[off] there turns a short frame into a
// panic that takes the whole site down. The analyzer runs the lint
// reaching-guard analysis over every function and reports an index or
// slice expression on a []byte value when
//
//   - the value is externally sized — a function parameter or a struct
//     field (locals built with make/append/literals in the same
//     function are trusted to be sized by their construction), and
//   - no guard mentioning len(x) (directly or through an alias
//     n := len(x)) dominates or precedes the expression: an enclosing
//     if/for/switch condition, a range over x, a terminating guard
//     like `if len(x) < 8 { return }`, or a clamping one like
//     `if end > len(x) { end = len(x) }`, and
//   - the expression's own indices do not mention len(x) (x[len(x)-1]
//     style self-guards are accepted as deliberate).
//
// The analysis is per-function: a helper whose caller checks the
// length must either take the checked slice re-sliced to size, carry
// its own guard, or annotate //mits:allow boundscheck with the
// caller-side invariant.
package boundscheck

import (
	"go/ast"
	"go/types"

	"mits/internal/lint"
)

// Analyzer is the boundscheck pass.
var Analyzer = &lint.Analyzer{
	Name: "boundscheck",
	Doc:  "report []byte indexing in decode paths not dominated by a length guard",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	guards := lint.NewGuards(pass, fd.Body)
	locals := locallySized(pass, fd)
	params := paramObjs(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var base ast.Expr
		var indices []ast.Expr
		switch e := n.(type) {
		case *ast.IndexExpr:
			base, indices = e.X, []ast.Expr{e.Index}
		case *ast.SliceExpr:
			base = e.X
			for _, ix := range []ast.Expr{e.Low, e.High, e.Max} {
				if ix != nil {
					indices = append(indices, ix)
				}
			}
		default:
			return true
		}
		if !isByteSlice(pass.TypesInfo.TypeOf(base)) {
			return true
		}
		obj := pass.Referent(base)
		if obj == nil || locals[obj] || !externallySized(obj, params) {
			return true
		}
		if guards.Guarded(n, obj) {
			return true
		}
		if _, isSlice := n.(*ast.SliceExpr); isSlice && allConstZero(pass, indices) {
			return true // x[:], x[0:], x[:0] cannot panic
		}
		if selfGuarded(pass, indices, obj) {
			return true
		}
		pass.Reportf(n.Pos(), "index into %s is not dominated by a len(%s) guard — add a length check or annotate //mits:allow boundscheck",
			exprString(base), exprString(base))
		return true
	})
}

// locallySized collects variables whose backing size this function
// controls: bound (anywhere in the body) to make/append/composite
// literals or conversions from string.
func locallySized(pass *lint.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if sizedByConstruction(pass, as.Rhs[i]) {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func sizedByConstruction(pass *lint.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				return b.Name() == "make" || b.Name() == "append"
			}
		}
		// []byte(s) conversion: sized by the source string.
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
			return true
		}
	}
	return false
}

// paramObjs collects the objects declared by the function's parameter
// list (the receiver indexes data it owns, so it is not included).
func paramObjs(pass *lint.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// externallySized reports whether the object is data from outside the
// function: a parameter or a struct field.
func externallySized(obj types.Object, params map[types.Object]bool) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.IsField() || params[obj]
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

// allConstZero reports whether every index expression is the constant 0.
func allConstZero(pass *lint.Pass, indices []ast.Expr) bool {
	for _, ix := range indices {
		tv, ok := pass.TypesInfo.Types[ix]
		if !ok || tv.Value == nil || tv.Value.String() != "0" {
			return false
		}
	}
	return true
}

// selfGuarded accepts indices that themselves mention len(base):
// x[len(x)-8:] is a deliberate tail slice, not an oversight.
func selfGuarded(pass *lint.Pass, indices []ast.Expr, base types.Object) bool {
	for _, ix := range indices {
		found := false
		ast.Inspect(ix, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "len" {
				return true
			}
			if pass.Referent(call.Args[0]) == base {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "value"
	}
}

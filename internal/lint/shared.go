// Shared layer: the syntax and type plumbing that two or more analyzers
// read. A fact layer with one reader lives in that reader's package —
// boundscheck's reaching length guards, chanwait's channel operations,
// atomicmix's atomic uses, poolcheck's call graph — so no analyzer pays
// for another's facts.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// FuncDecls returns the package's function declarations that have a
// body, in file order.
func (p *Pass) FuncDecls() []*ast.FuncDecl { return funcDecls(p.Files) }

func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// Params returns the objects fd's parameter list declares, in order
// (the receiver is not a parameter).
func (p *Pass) Params(fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := p.TypesInfo.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// Parents maps every node under root to its enclosing node. Use it to
// classify the syntactic context of an identifier use.
func Parents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// Escapes reports whether this use of a value hands it away: passed as
// a call argument, returned, placed in a composite literal, sent,
// stored by an assignment, or address-taken.
func Escapes(parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	switch p := parents[id].(type) {
	case *ast.CallExpr:
		return slices.Contains(p.Args, ast.Expr(id))
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt:
		return true
	case *ast.KeyValueExpr:
		return p.Value == id
	case *ast.AssignStmt:
		return slices.Contains(p.Rhs, ast.Expr(id))
	case *ast.UnaryExpr:
		return p.Op == token.AND
	}
	return false
}

// Referent resolves an expression to the variable-like object it
// denotes: an identifier to its *types.Var / *types.PkgName / etc., a
// field selector to the field's *types.Var (so r.buf in any method of
// the same type resolves to one object). Returns nil for everything
// else (calls, literals, index expressions).
func (p *Pass) Referent(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := p.TypesInfo.Uses[e]; obj != nil {
			return obj
		}
		return p.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		if s := p.TypesInfo.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		// Package-qualified name (pkg.Var).
		if obj := p.TypesInfo.Uses[e.Sel]; obj != nil {
			if _, ok := obj.(*types.Var); ok {
				return obj
			}
		}
	}
	return nil
}

// Callee statically resolves a call to the function it names — generic
// ones included, explicit type arguments (f[T], pkg.f[K, V]) stripped —
// or nil when the callee is dynamic.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	var id *ast.Ident
	switch e := fun.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// NamedTypes returns the named types declared in scope, in name order.
func NamedTypes(scope *types.Scope) []*types.Named {
	var out []*types.Named
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				out = append(out, named)
			}
		}
	}
	return out
}

// IsNamed reports whether t is the named type pkg.name for one of
// names, or any named type of package pkg when names is empty.
func IsNamed(t types.Type, pkg string, names ...string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pkg {
		return false
	}
	return len(names) == 0 || slices.Contains(names, named.Obj().Name())
}

func isMutex(t types.Type) bool { return IsNamed(t, "sync", "Mutex", "RWMutex") }

// MutexField returns the first sync.Mutex or sync.RWMutex field of t's
// struct, nil when it has none.
func MutexField(t types.Type) *types.Var {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if fld := st.Field(i); isMutex(fld.Type()) {
			return fld
		}
	}
	return nil
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// ConstructedTypes collects the named struct types body builds — with
// a composite literal, or as the result of a package-local New*
// constructor (the school.Load / mediastore.Load shape). Such values
// are not shared until the body hands them out, so their fields may be
// initialized without the struct's synchronization discipline.
func (p *Pass) ConstructedTypes(body ast.Node) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	record := func(t types.Type) {
		if named, ok := derefNamed(t); ok {
			out[named] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			if t := p.TypesInfo.TypeOf(x); t != nil {
				record(t)
			}
		case *ast.CallExpr:
			var id *ast.Ident
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			if id == nil || !strings.HasPrefix(id.Name, "New") {
				return true
			}
			if fn, ok := p.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() == p.Pkg {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() > 0 {
					record(sig.Results().At(0).Type())
				}
			}
		}
		return true
	})
	return out
}

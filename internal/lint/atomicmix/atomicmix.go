// Package atomicmix flags variables that mix synchronization
// disciplines: a field accessed through sync/atomic at one site and
// plainly (or under a mutex) at another.
//
// The Go memory model gives atomic operations an order only against
// other atomic operations on the same address; a plain load can see a
// torn or stale value regardless of atomics elsewhere, and a mutex
// does not order its critical sections against atomic access from
// outside them. Every field must therefore pick exactly one
// discipline. Two rules:
//
//   - atomic/plain mix: a variable whose address reaches a sync/atomic
//     function anywhere in the package must not be read or written
//     plainly anywhere else. Initialization is exempt where it is
//     visibly pre-publication: composite-literal fields, and accesses
//     inside a body that itself constructs the owning struct.
//
//   - atomic/mutex mix: when the mixed-access field belongs to a
//     struct with its own sync.Mutex/RWMutex, the diagnostic names the
//     mutex — the usual fix is to stop being clever and take the lock.
//
// Helpers that run under the caller's lock keep the lockcheck
// conventions: a *Locked name suffix or //mits:allow atomicmix. Plain
// access to a mutex-guarded field without its lock is lockcheck's.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mits/internal/lint"
)

// Analyzer is the atomicmix pass.
var Analyzer = &lint.Analyzer{
	Name: "atomicmix",
	Doc:  "report variables mixing synchronization disciplines: sync/atomic at one site, plain or mutex-guarded access at another",
	Run:  run,
}

func run(pass *lint.Pass) error {
	// Every variable whose address reaches a sync/atomic function, with
	// those call positions.
	atomicUses := make(map[types.Object][]token.Pos)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isAtomicCall(pass, call) {
				for _, arg := range call.Args {
					if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
						if obj := pass.Referent(ue.X); obj != nil {
							atomicUses[obj] = append(atomicUses[obj], call.Pos())
						}
					}
				}
			}
			return true
		})
	}
	if len(atomicUses) == 0 {
		return nil
	}
	for _, fd := range pass.FuncDecls() {
		if strings.HasSuffix(fd.Name.Name, "Locked") {
			continue // a Locked helper runs under the caller's lock by convention
		}
		parents := lint.Parents(fd.Body)
		constructed := pass.ConstructedTypes(fd.Body)
		reported := map[types.Object]bool{} // one report per field per function
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			obj := pass.Referent(e)
			if obj == nil {
				return true
			}
			uses := atomicUses[obj]
			if len(uses) == 0 || reported[obj] || !plainUse(pass, parents, e) {
				return true
			}
			mutexNote := ""
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if owner := fieldOwner(pass, v); owner != nil {
					if constructed[owner] {
						return true // pre-publication initialization in a constructor body
					}
					if mu := lint.MutexField(owner); mu != nil {
						mutexNote = " (the struct has " + mu.Name() + "; mixing a mutex with atomics on one field orders nothing)"
					}
				}
			}
			reported[obj] = true
			pos := pass.Fset.Position(uses[0])
			pass.Reportf(e.Pos(), "%s is accessed with sync/atomic (e.g. %s:%d) but plainly here — one field, one discipline%s",
				obj.Name(), pos.Filename, pos.Line, mutexNote)
			return false
		})
	}
	return nil
}

// plainUse reports whether this appearance of the object is a plain
// (non-atomic) read or write: not the &x argument of a sync/atomic
// call, not a composite-literal key, not part of a larger selector,
// and not a declaration.
func plainUse(pass *lint.Pass, parents map[ast.Node]ast.Node, e ast.Expr) bool {
	// Only classify the outermost expression denoting the object: for
	// s.f the Ident f and the SelectorExpr both resolve to the field;
	// take the selector and skip its Sel ident to avoid double reports.
	switch p := parents[e].(type) {
	case *ast.SelectorExpr:
		// Either the Sel ident (handled at the SelectorExpr node) or the
		// base of a selector (not itself the access).
		return false
	case *ast.KeyValueExpr:
		if p.Key == e {
			return false // composite-literal initialization
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			// &x: atomic-call argument or explicit aliasing. The atomic
			// calls were collected already; any other address-taking is
			// treated as plain (an alias can be read without atomics).
			if call, ok := parents[p].(*ast.CallExpr); ok && isAtomicCall(pass, call) {
				return false
			}
		}
	case *ast.ValueSpec, *ast.Field:
		return false
	}
	return true
}

func isAtomicCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// fieldOwner resolves a field var to the named struct declaring it.
func fieldOwner(pass *lint.Pass, fld *types.Var) *types.Named {
	for _, named := range lint.NamedTypes(pass.Pkg.Scope()) {
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == fld {
					return named
				}
			}
		}
	}
	return nil
}

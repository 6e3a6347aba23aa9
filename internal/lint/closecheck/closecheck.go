// Package closecheck flags acquired closeable values that are neither
// closed nor allowed to escape their creating function.
//
// The system's resources — net.Listener and net.Conn in the transport,
// file handles in the persistence layers, stats servers in obs — all
// follow the same contract: whoever creates one either closes it on
// every path or hands ownership away (returns it, stores it in a
// struct, passes it to another function). A value that does neither is
// a leak: under the ROADMAP's heavy-traffic load a leaked descriptor
// per request exhausts the process in minutes.
//
// For each call expression whose result type carries a Close method,
// bound to a local variable, the analyzer tracks every use of that
// variable through the function body (the lint parent map classifies
// the use contexts) and accepts the acquisition when any use is
//
//   - a Close/Shutdown/Stop/Hangup call on the value (deferred or not),
//   - a return of the value,
//   - the value passed as a call argument (the callee may close it),
//   - the value stored: assigned to a field, global, map/slice element
//     or another variable, placed in a composite literal, or sent on a
//     channel — ownership escapes, someone else closes it.
//
// Only acquisitions from other packages are checked (net.Listen,
// os.Create, transport.DialTCP seen from a caller): a package-local
// constructor's ownership story is its own business, and its callers
// are checked at their own call sites. Intentional leaks (process-
// lifetime resources) take //mits:allow closecheck with a reason.
package closecheck

import (
	"go/ast"
	"go/types"
	"slices"

	"mits/internal/lint"
)

// Analyzer is the closecheck pass.
var Analyzer = &lint.Analyzer{
	Name: "closecheck",
	Doc:  "report closeable values (files, conns, listeners) that are never closed and never escape",
	Run:  run,
}

var closeNames = []string{"Close", "Shutdown", "Stop", "Hangup"}

func run(pass *lint.Pass) error {
	for _, fd := range pass.FuncDecls() {
		checkFunc(pass, fd)
	}
	return nil
}

// acquisition is one closeable value bound to a local variable.
type acquisition struct {
	obj  *types.Var
	call *ast.CallExpr
	ok   bool // closed or escaped
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	parents := lint.Parents(fd.Body)
	var acqs []*acquisition
	byObj := make(map[*types.Var]*acquisition)

	// Pass 1: find acquisitions — v := call() / v, err := call() where
	// v's type has a Close method and the callee is another package's.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isForeignCall(pass, call) {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if ok && id.Name == "_" {
				continue
			}
			if !ok {
				continue // field/index target: stored, ownership escapes
			}
			v, ok := pass.TypesInfo.Defs[id].(*types.Var)
			if !ok {
				continue // reassignment of an existing var: out of scope here
			}
			if !returnsErrorOrNothing(v.Type()) {
				continue
			}
			a := &acquisition{obj: v, call: call}
			acqs = append(acqs, a)
			byObj[v] = a
		}
		return true
	})
	if len(acqs) == 0 {
		return
	}

	// Pass 2: classify every use of each acquired variable.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		a := byObj[v]
		if a == nil || a.ok {
			return true
		}
		if useReleases(parents, id) {
			a.ok = true
		}
		return true
	})

	for _, a := range acqs {
		if !a.ok {
			pass.Reportf(a.call.Pos(), "%s (%s) is never closed and never escapes this function — close it on every path or annotate //mits:allow closecheck",
				a.obj.Name(), types.TypeString(a.obj.Type(), types.RelativeTo(pass.Pkg)))
		}
	}
}

// isForeignCall reports whether the call statically resolves to a
// function declared outside the package being analyzed (or is a
// conversion/dynamic call, which we skip entirely by returning false
// unless it is a real call to a foreign function).
func isForeignCall(pass *lint.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	return fn.Pkg() == nil || fn.Pkg() != pass.Pkg
}

// returnsErrorOrNothing reports whether t's method set (taking the
// address if needed) has a close method of the shape `Close() error` or
// `Close()`, so arbitrary Close-named methods with parameters don't
// drag a type into resource tracking.
func returnsErrorOrNothing(t types.Type) bool {
	for _, name := range closeNames {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if fn, ok := obj.(*types.Func); ok {
			sig := fn.Type().(*types.Signature)
			if sig.Params().Len() == 0 && sig.Results().Len() <= 1 {
				return true
			}
		}
	}
	return false
}

// useReleases reports whether this use of the variable closes it or
// lets it escape. v.M(...) releases for a close method only; any other
// method call or field read is just a use.
func useReleases(parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	if p, ok := parents[id].(*ast.SelectorExpr); ok {
		call, ok := parents[p].(*ast.CallExpr)
		return ok && call.Fun == p && slices.Contains(closeNames, p.Sel.Name)
	}
	return lint.Escapes(parents, id)
}

// Package lifecycle enforces the MHEG three-form object life cycle of
// ISO/IEC 13522-1 (§2.2.2.2 of the thesis): objects are interchanged
// as form (a) byte streams, decoded and validated into form (b) model
// objects, and instantiated into form (c) run-time objects that alone
// carry presentation state. Two taint-style, within-function checks:
//
//  1. Fabricated run-time ids. Form (c) operations on an Engine (Run,
//     Stop, Pause, Resume, Delete, Select, SetSelection, Input) must
//     receive an RTID produced by NewRT/RT — never a compile-time
//     constant, which bypasses form (b)→(c) instantiation. Constants
//     are traced through simple single-assignment locals.
//
//  2. Interchange without validation. A model object built by hand
//     (composite literal of an mheg class) must flow through
//     Validate(), AddModel or Ingest before an Encode call ships it
//     as form (a): "Engines validate every object at decode time
//     before it becomes a form (b) object" — the encode side owes its
//     peers the same guarantee.
//
// Both checks reason within one function body; cross-function flows
// are trusted (a parameter is assumed already validated/instantiated
// by the caller). //mits:allow lifecycle suppresses a line.
package lifecycle

import (
	"go/ast"
	"go/types"
	"strings"

	"mits/internal/lint"
)

// Analyzer is the lifecycle pass.
var Analyzer = &lint.Analyzer{
	Name: "lifecycle",
	Doc:  "enforce the MHEG form (a)/(b)/(c) object life cycle",
	Run:  run,
}

// formC lists Engine methods that operate on form (c) run-time objects.
var formC = map[string]bool{
	"Run": true, "Stop": true, "Pause": true, "Resume": true,
	"Delete": true, "Select": true, "SetSelection": true, "Input": true,
}

// sanctifiers are the calls that move a hand-built object into the
// validated form (b) world.
var sanctifiers = map[string]bool{"AddModel": true, "Ingest": true}

func run(pass *lint.Pass) error {
	for _, fd := range pass.FuncDecls() {
		checkFabricatedRTIDs(pass, fd.Body)
		checkUnvalidatedEncodes(pass, fd.Body)
	}
	return nil
}

func hasPathSegment(pkg *types.Package, want string) bool {
	if pkg == nil {
		return false
	}
	for _, seg := range strings.Split(pkg.Path(), "/") {
		if seg == want {
			return true
		}
	}
	return false
}

// ---- check 1: fabricated RTIDs ----

// engineFormCCall reports whether call is a form (c) method on an
// engine.Engine taking an RTID first parameter.
func engineFormCCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !formC[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() == 0 {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Engine" || !hasPathSegment(named.Obj().Pkg(), "engine") {
		return false
	}
	p0, ok := sig.Params().At(0).Type().(*types.Named)
	return ok && p0.Obj().Name() == "RTID"
}

// singleAssignments maps each local assigned exactly once to its RHS;
// multiply-assigned locals (loop counters) map to nil.
func singleAssignments(pass *lint.Pass, body *ast.BlockStmt) map[types.Object]ast.Expr {
	out := make(map[types.Object]ast.Expr)
	seen := make(map[types.Object]int)
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		seen[obj]++
		if seen[obj] == 1 {
			out[obj] = rhs
		} else {
			out[obj] = nil
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			} else {
				for _, lhs := range n.Lhs {
					record(lhs, nil) // tuple from a call: not a constant
				}
			}
		case *ast.IncDecStmt:
			record(n.X, nil)
		case *ast.RangeStmt:
			if n.Key != nil {
				record(n.Key, nil)
			}
			if n.Value != nil {
				record(n.Value, nil)
			}
		}
		return true
	})
	return out
}

// constantOrigin reports whether expr is a compile-time constant,
// following single-assignment locals up to a small depth.
func constantOrigin(pass *lint.Pass, assigns map[types.Object]ast.Expr, expr ast.Expr, depth int) bool {
	if expr == nil || depth > 5 {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[expr]; ok && tv.Value != nil {
		return true
	}
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	rhs, tracked := assigns[obj]
	if !tracked {
		return false
	}
	return constantOrigin(pass, assigns, rhs, depth+1)
}

func checkFabricatedRTIDs(pass *lint.Pass, body *ast.BlockStmt) {
	assigns := singleAssignments(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !engineFormCCall(pass, call) {
			return true
		}
		if constantOrigin(pass, assigns, call.Args[0], 0) {
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			pass.Reportf(call.Pos(), "Engine.%s called with a constant RTID: form (c) ids must come from NewRT/RT (MHEG object life cycle)", sel.Sel.Name)
		}
		return true
	})
}

// ---- check 2: encode without validate ----

// mhegObjectType reports whether t (possibly a pointer) is a named
// struct of an mheg package whose pointer method set has Validate.
func mhegObjectType(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !hasPathSegment(named.Obj().Pkg(), "mheg") {
		return nil, false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil, false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "Validate" {
			return named, true
		}
	}
	return nil, false
}

// exprVar resolves x or &x to its variable object.
func exprVar(pass *lint.Pass, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return pass.TypesInfo.Uses[id]
	}
	return nil
}

// isCompositeLit reports whether e is T{...} or &T{...}.
func isCompositeLit(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func checkUnvalidatedEncodes(pass *lint.Pass, body *ast.BlockStmt) {
	// Locals built by hand: var → position of the composite-literal def.
	handBuilt := make(map[types.Object]ast.Expr)
	// Position before which the object became trusted, per var.
	sanctified := make(map[types.Object]ast.Node)
	ast.Inspect(body, func(n ast.Node) bool {
		if assign, ok := n.(*ast.AssignStmt); ok && len(assign.Lhs) == len(assign.Rhs) {
			for i := range assign.Lhs {
				id, ok := assign.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" || !isCompositeLit(assign.Rhs[i]) {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				if _, ok := mhegObjectType(obj.Type()); ok {
					handBuilt[obj] = assign.Rhs[i]
				}
			}
		}
		return true
	})
	// Even with no tracked locals, the walk below still catches inline
	// Encode(&T{...}) literals.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		switch {
		case name == "Validate":
			// x.Validate(): sanctifies x.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if obj := exprVar(pass, sel.X); obj != nil {
					if _, tracked := handBuilt[obj]; tracked && sanctified[obj] == nil {
						sanctified[obj] = call
					}
				}
			}
		case sanctifiers[name]:
			for _, arg := range call.Args {
				if obj := exprVar(pass, arg); obj != nil {
					if _, tracked := handBuilt[obj]; tracked && sanctified[obj] == nil {
						sanctified[obj] = call
					}
				}
			}
		case name == "Encode":
			for _, arg := range call.Args {
				if isCompositeLit(arg) {
					if t, ok := typeOfExpr(pass, arg); ok {
						pass.Reportf(call.Pos(), "hand-built %s encoded without Validate: form (b) objects must validate before interchange (MHEG life cycle)", t.Obj().Name())
					}
					continue
				}
				obj := exprVar(pass, arg)
				if obj == nil {
					continue
				}
				if _, tracked := handBuilt[obj]; !tracked {
					continue
				}
				if prior := sanctified[obj]; prior != nil && prior.Pos() < call.Pos() {
					continue
				}
				named, _ := mhegObjectType(obj.Type())
				pass.Reportf(call.Pos(), "hand-built %s encoded without Validate: form (b) objects must validate before interchange (MHEG life cycle)", named.Obj().Name())
			}
		}
		return true
	})
}

func typeOfExpr(pass *lint.Pass, e ast.Expr) (*types.Named, bool) {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return nil, false
	}
	return mhegObjectType(t)
}

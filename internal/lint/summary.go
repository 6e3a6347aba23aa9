// Interprocedural summaries: the per-package facts lockorder stitches
// into whole-module reasoning.
//
// Each function declaration (plus each goroutine body launched inside
// one) is condensed into a funcSummary: the mutexes it acquires and
// which locks are lexically held at each acquisition, and every call
// it makes with the locks held at that call site. Load type-checks
// every package against one FileSet and one set of checked packages,
// so a *types.Func, a lock's *types.Var and a token.Pos name the same
// function, lock and position from every package's pass; names are
// rendered only where a message prints them.
//
// The held-lock tracking is the same trade every analyzer here makes:
// lexical source order, not a happens-before proof. An Unlock in a
// plain statement releases; an Unlock inside a defer does not (the
// lock stays held for the rest of the body); a func literal starts
// with nothing held (it may run on any goroutine at any time); a `go`
// launch is summarized separately so a spawned body's acquisitions are
// never attributed to the launching lock context.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Lock is a mutex as lock ordering sees it: a struct field reached
// through the named type Owner, or a package-level variable (Owner
// nil). Local mutex variables are deliberately untracked: a lock that
// never escapes a stack frame cannot take part in a cross-goroutine
// ordering.
type Lock struct {
	Owner *types.TypeName
	Var   *types.Var
}

// String renders the lock as messages print it: pkgpath.Type.field
// or pkgpath.var.
func (l Lock) String() string {
	if l.Owner != nil {
		return l.Var.Pkg().Path() + "." + l.Owner.Name() + "." + l.Var.Name()
	}
	return l.Var.Pkg().Path() + "." + l.Var.Name()
}

// ifaceMethod is a method called through a named interface type.
type ifaceMethod struct {
	iface *types.TypeName
	name  string
}

// lockAcq is one mutex acquisition.
type lockAcq struct {
	lock Lock
	pos  token.Pos
	held []Lock // locks lexically held when this one is taken
}

// callSite is one call made by the summarized function.
type callSite struct {
	pos    token.Pos
	callee *types.Func // statically resolved callee, nil when dynamic
	iface  ifaceMethod // set when the call goes through a named interface
	held   []Lock      // locks lexically held at the call
	// deferred/async: the call runs at function exit (defer) or on a
	// fresh goroutine (go) — excluded from held-lock edge propagation.
	deferred, async bool
}

// funcSummary is the interprocedural fact set for one function,
// method, or launched goroutine body.
type funcSummary struct {
	name     string // pkgpath.Func, pkgpath.(Type).Method, or parent#goN
	acquires []lockAcq
	calls    []callSite
}

// funcName renders a declared function as summaries name it.
func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named, ok := derefNamed(recv.Type()); ok {
			return fmt.Sprintf("%s.(%s).%s", fn.Pkg().Path(), named.Obj().Name(), fn.Name())
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// summarize condenses one declaration, returning its summary plus one
// synthetic summary per goroutine body launched inside it.
func summarize(info *types.Info, fn *types.Func, fd *ast.FuncDecl) []*funcSummary {
	root := &funcSummary{name: funcName(fn)}
	goBodies := walkBody(info, root, fd.Body)
	out := []*funcSummary{root}
	for n := 1; len(goBodies) > 0; n++ {
		sub := &funcSummary{name: fmt.Sprintf("%s#go%d", root.name, n)}
		goBodies = append(goBodies[1:], walkBody(info, sub, goBodies[0])...)
		out = append(out, sub)
	}
	return out
}

// walkBody records acquisitions and calls in source order with lexical
// held-lock tracking, and returns the bodies of `go` statements for
// separate summarization.
func walkBody(info *types.Info, sum *funcSummary, body *ast.BlockStmt) []*ast.BlockStmt {
	var held []Lock
	var goBodies []*ast.BlockStmt
	var walk func(n ast.Node, deferred bool)
	// nothingHeld walks a function literal's body with no locks held.
	nothingHeld := func(body *ast.BlockStmt) {
		saved := held
		held = nil
		walk(body, false)
		held = saved
	}
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// `go expr()`: arguments and the callee expression are
				// evaluated synchronously, but the launched body is not.
				if _, _, ok := lockCall(info, n.Call); !ok {
					sum.calls = append(sum.calls, newCallSite(info, n.Call, held, deferred, true))
				}
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					goBodies = append(goBodies, lit.Body)
				}
				for _, arg := range n.Call.Args {
					walk(arg, deferred)
				}
				return false
			case *ast.DeferStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					// Deferred closures run at exit; locks held here may be
					// gone by then, so their content runs with nothing held.
					nothingHeld(lit.Body)
				} else if _, _, ok := lockCall(info, n.Call); !ok {
					// `defer mu.Unlock()` is the release idiom, not a call
					// site; everything else deferred is a real call that
					// runs at exit with an unknowable lock context.
					sum.calls = append(sum.calls, newCallSite(info, n.Call, nil, true, false))
				}
				for _, arg := range n.Call.Args {
					walk(arg, deferred)
				}
				return false
			case *ast.FuncLit:
				// A bare literal may be invoked synchronously (a fill
				// callback) or stashed for another goroutine; either way
				// nothing proves the current locks are held when it runs.
				nothingHeld(n.Body)
				return false
			case *ast.CallExpr:
				lock, acquire, ok := lockCall(info, n)
				switch {
				case !ok:
					sum.calls = append(sum.calls, newCallSite(info, n, held, deferred, false))
				case acquire && !deferred: // a deferred Lock is pathological; ignore
					sum.acquires = append(sum.acquires, lockAcq{lock: lock, pos: n.Pos(), held: slices.Clone(held)})
					if !slices.Contains(held, lock) {
						held = append(held, lock)
					}
				case !acquire && !deferred:
					// Unlock in plain flow releases; inside a defer it
					// keeps the lock held for the rest of the body.
					if i := slices.Index(held, lock); i >= 0 {
						held = slices.Delete(held, i, i+1)
					}
				}
			}
			return true
		})
	}
	walk(body, false)
	return goBodies
}

// lockCall recognizes sync.Mutex / sync.RWMutex Lock / RLock / TryLock
// / TryRLock (acquire) and Unlock / RUnlock calls, including through an
// embedded mutex, on a lock lock ordering tracks.
func lockCall(info *types.Info, call *ast.CallExpr) (lock Lock, acquire, ok bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return Lock{}, false, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return Lock{}, false, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return Lock{}, false, false
	}
	if named, ok := derefNamed(recv.Type()); !ok || !isMutex(named) {
		return Lock{}, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		// A failed TryLock does not block; success still orders, so it
		// counts as an acquire.
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return Lock{}, false, false
	}
	lock = lockOf(info, sel)
	return lock, acquire, lock.Var != nil
}

// lockOf resolves the receiver of a mutex method call. sel is the
// `x.mu.Lock` selector; the selection's index path names the mutex
// field even when it is embedded (s.Lock() on a struct embedding
// sync.Mutex).
func lockOf(info *types.Info, sel *ast.SelectorExpr) Lock {
	if s := info.Selections[sel]; s != nil {
		if named, ok := derefNamed(s.Recv()); ok && named.Obj().Pkg() != nil && !isMutex(named) {
			// s.Lock() through an embedded mutex: the owning named
			// type's embedded field.
			if st, ok := named.Underlying().(*types.Struct); ok && len(s.Index()) > 0 && s.Index()[0] < st.NumFields() {
				if f := st.Field(s.Index()[0]); isMutex(f.Type()) {
					return Lock{Owner: named.Obj(), Var: f.Origin()}
				}
			}
		}
	}
	// The receiver is the mutex itself: resolve x in x.Lock() to a
	// field (s.mu) or a package-level variable (pkg.mu, mu).
	switch e := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			field, _ := s.Obj().(*types.Var)
			if field == nil || field.Pkg() == nil {
				return Lock{}
			}
			l := Lock{Var: field.Origin()}
			if named, ok := derefNamed(s.Recv()); ok {
				l.Owner = named.Obj()
			}
			return l
		}
		return pkgLevel(info.Uses[e.Sel])
	case *ast.Ident:
		return pkgLevel(info.Uses[e])
	}
	return Lock{}
}

// pkgLevel is the lock of a package-level mutex variable.
func pkgLevel(obj types.Object) Lock {
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return Lock{Var: v}
	}
	return Lock{}
}

// newCallSite records call (which is known not to be a mutex
// operation): its static callee, or the named interface method it
// dispatches through.
func newCallSite(info *types.Info, call *ast.CallExpr, held []Lock, deferred, async bool) callSite {
	cs := callSite{pos: call.Pos(), held: slices.Clone(held), deferred: deferred, async: async}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			if named, ok := derefNamed(s.Recv()); ok && named.Obj().Pkg() != nil {
				cs.iface = ifaceMethod{named.Obj(), sel.Sel.Name}
				return cs
			}
		}
	}
	if fn := Callee(info, call); fn != nil {
		cs.callee = fn.Origin()
	}
	return cs
}

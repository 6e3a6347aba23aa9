// Interprocedural summaries: the per-package facts lockorder stitches
// into whole-module reasoning.
//
// Each function declaration (plus each goroutine body launched inside
// one) is condensed into a FuncSummary: the mutexes it acquires and
// which locks are lexically held at each acquisition, and every call
// it makes with the locks held at that call site. Summaries are pure
// data — qualified-name strings and serialized positions, no
// *types.Object pointers — so one package's facts read the same from
// any other package's pass.
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
	"strconv"
	"strings"
)

// FuncID names a function or method across the module:
// "pkgpath.Func", "pkgpath.(Type).Method" (pointer receivers
// normalized), or "parent#goN" for the Nth goroutine body launched
// inside parent.
type FuncID string

// LockID names a mutex across the module: "pkgpath.Type.field" for a
// struct field, "pkgpath.var" for a package-level mutex. Local mutex
// variables are deliberately unnamed (and untracked): a lock that
// never escapes a stack frame cannot participate in a cross-goroutine
// ordering.
type LockID string

// IfaceMethodID names an interface method, "pkgpath.Iface.Method".
type IfaceMethodID string

// LockAcq is one mutex acquisition.
type LockAcq struct {
	Lock LockID
	Pos  string
	Held []LockID // locks lexically held when this one is taken
}

// CallSite is one call made by the summarized function.
type CallSite struct {
	Pos    string
	Callee FuncID        // statically-resolved callee ("" when dynamic)
	Iface  IfaceMethodID // set when the call goes through a named in-module interface
	Held   []LockID      // locks lexically held at the call
	// Deferred/Async: the call runs at function exit (defer) or on a
	// fresh goroutine (go) — excluded from held-lock edge propagation.
	Deferred bool
	Async    bool
}

// FuncSummary is the interprocedural fact set for one function,
// method, or launched goroutine body.
type FuncSummary struct {
	ID       FuncID
	Acquires []LockAcq
	Calls    []CallSite
}

// summarize extracts the interprocedural facts for one loaded package.
func summarize(pkg *Package) []*FuncSummary {
	ex := &extractor{pkg: pkg}
	var out []*FuncSummary
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, ex.summarize(fn, fd)...)
		}
	}
	return out
}

type extractor struct {
	pkg *Package
}

func (ex *extractor) pos(p token.Pos) string {
	return ex.pkg.Fset.Position(p).String()
}

// funcIDOf builds the module-wide ID for a function object.
func funcIDOf(fn *types.Func) FuncID {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if named, ok := derefNamed(sig.Recv().Type()); ok {
			return FuncID(fmt.Sprintf("%s.(%s).%s", pkgPath, named.Obj().Name(), fn.Name()))
		}
	}
	return FuncID(pkgPath + "." + fn.Name())
}

// summarize condenses one declaration, returning its summary plus one
// synthetic summary per goroutine body launched inside it.
func (ex *extractor) summarize(fn *types.Func, fd *ast.FuncDecl) []*FuncSummary {
	root := &FuncSummary{ID: funcIDOf(fn)}
	goBodies := ex.walkBody(root, fd.Body)
	out := []*FuncSummary{root}
	n := 0
	for len(goBodies) > 0 {
		body := goBodies[0]
		goBodies = goBodies[1:]
		n++
		sub := &FuncSummary{ID: FuncID(fmt.Sprintf("%s#go%d", root.ID, n))}
		goBodies = append(goBodies, ex.walkBody(sub, body)...)
		out = append(out, sub)
	}
	return out
}

// walkBody records acquisitions and calls in source order with lexical
// held-lock tracking, and returns the bodies of `go` statements for
// separate summarization.
func (ex *extractor) walkBody(sum *FuncSummary, body *ast.BlockStmt) []*ast.BlockStmt {
	var held []LockID
	var goBodies []*ast.BlockStmt
	holdIdx := func(id LockID) int {
		for i, h := range held {
			if h == id {
				return i
			}
		}
		return -1
	}

	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// `go expr()`: arguments and the callee expression are
				// evaluated synchronously, but the launched body is not.
				if lock, _ := ex.classifyLockCall(n.Call); lock == "" {
					ex.recordCall(sum, n.Call, held, deferred, true)
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
					saved := held
					held = nil
					walk(lit.Body, false)
					held = saved
				} else if lock, _ := ex.classifyLockCall(n.Call); lock == "" {
					// `defer mu.Unlock()` is the release idiom, not a call
					// site; everything else deferred is a real call that
					// runs at exit with an unknowable lock context.
					ex.recordCall(sum, n.Call, nil, true, false)
				}
				for _, arg := range n.Call.Args {
					walk(arg, deferred)
				}
				return false
			case *ast.FuncLit:
				// A bare literal may be invoked synchronously (a fill
				// callback) or stashed for another goroutine; either way
				// nothing proves the current locks are held when it runs.
				saved := held
				held = nil
				walk(n.Body, false)
				held = saved
				return false
			case *ast.CallExpr:
				if lock, isAcquire := ex.classifyLockCall(n); lock != "" {
					if isAcquire {
						if deferred {
							// A deferred Lock is pathological; ignore.
							return true
						}
						sum.Acquires = append(sum.Acquires, LockAcq{
							Lock: lock,
							Pos:  ex.pos(n.Pos()),
							Held: append([]LockID(nil), held...),
						})
						if holdIdx(lock) < 0 {
							held = append(held, lock)
						}
					} else if !deferred {
						// Unlock in plain flow releases; inside a defer it
						// keeps the lock held for the rest of the body.
						if i := holdIdx(lock); i >= 0 {
							held = append(held[:i], held[i+1:]...)
						}
					}
					return true
				}
				ex.recordCall(sum, n, held, deferred, false)
			}
			return true
		})
	}
	walk(body, false)
	return goBodies
}

// classifyLockCall recognizes sync.Mutex / sync.RWMutex Lock / RLock /
// Unlock / RUnlock calls (including through an embedded mutex) and
// resolves the lock's module-wide identity. Returns ("", _) for every
// other call.
func (ex *extractor) classifyLockCall(call *ast.CallExpr) (lock LockID, acquire bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := ex.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	if named, ok := derefNamed(recv.Type()); !ok || !IsMutex(named) {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	case "TryLock", "TryRLock":
		// A failed TryLock does not block; treat success as an acquire
		// for edge purposes (it still establishes ordering when held).
		acquire = true
	default:
		return "", false
	}
	id := ex.lockIdent(sel)
	if id == "" {
		return "", false
	}
	return id, acquire
}

// lockIdent resolves the receiver of a mutex method call to a stable
// module-wide lock identity. sel is the `x.mu.Lock` selector; the
// selection's index path names the mutex field even when it is
// embedded (s.Lock() on a struct embedding sync.Mutex).
func (ex *extractor) lockIdent(sel *ast.SelectorExpr) LockID {
	if s := ex.pkg.Info.Selections[sel]; s != nil {
		if named, ok := derefNamed(s.Recv()); ok && named.Obj().Pkg() != nil && !IsMutex(named) {
			// s.Lock() through an embedded mutex: identity is the
			// owning named type's embedded field.
			obj := named.Obj()
			st, ok := named.Underlying().(*types.Struct)
			if ok && len(s.Index()) > 0 {
				idx := s.Index()[0]
				if idx < st.NumFields() {
					f := st.Field(idx)
					if IsMutex(f.Type()) {
						return LockID(fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), obj.Name(), f.Name()))
					}
				}
			}
		}
	}
	// The receiver is the mutex itself: resolve x in x.Lock().
	return ex.lockOwner(sel.X)
}

// lockOwner resolves a mutex-valued expression (s.mu, pkg.mu, mu) to
// its identity: owning-struct field or package-level variable. Local
// variables return "".
func (ex *extractor) lockOwner(e ast.Expr) LockID {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s := ex.pkg.Info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			field, _ := s.Obj().(*types.Var)
			if field == nil || field.Pkg() == nil {
				return ""
			}
			if named, ok := derefNamed(s.Recv()); ok {
				return LockID(fmt.Sprintf("%s.%s.%s", field.Pkg().Path(), named.Obj().Name(), field.Name()))
			}
			return LockID(field.Pkg().Path() + "." + field.Name())
		}
		// Package-qualified variable: pkg.Mu.
		if obj, ok := ex.pkg.Info.Uses[e.Sel].(*types.Var); ok && isPkgLevel(obj) {
			return LockID(obj.Pkg().Path() + "." + obj.Name())
		}
	case *ast.Ident:
		if obj, ok := ex.pkg.Info.Uses[e].(*types.Var); ok && isPkgLevel(obj) {
			return LockID(obj.Pkg().Path() + "." + obj.Name())
		}
	}
	return ""
}

// isPkgLevel reports whether v is declared at package scope.
func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// recordCall appends a CallSite for call (which is known not to be a
// mutex operation).
func (ex *extractor) recordCall(sum *FuncSummary, call *ast.CallExpr, held []LockID, deferred, async bool) {
	cs := CallSite{
		Pos:      ex.pos(call.Pos()),
		Held:     append([]LockID(nil), held...),
		Deferred: deferred,
		Async:    async,
	}
	var calleeFn *types.Func
	switch fun := uninstantiate(ex.pkg.Info, call.Fun).(type) {
	case *ast.Ident:
		calleeFn, _ = ex.pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		calleeFn, _ = ex.pkg.Info.Uses[fun.Sel].(*types.Func)
		if s := ex.pkg.Info.Selections[fun]; s != nil && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			if named, ok := derefNamed(s.Recv()); ok && named.Obj().Pkg() != nil {
				cs.Iface = IfaceMethodID(fmt.Sprintf("%s.%s.%s", named.Obj().Pkg().Path(), named.Obj().Name(), fun.Sel.Name))
			}
		}
	default:
		// Dynamic call (function value, conversion result): record the
		// site with no callee so held-lock facts still exist.
	}
	// Interface method objects resolve to the interface's method; only
	// record a concrete callee for statically-dispatched calls.
	if calleeFn != nil && cs.Iface == "" {
		cs.Callee = funcIDOf(calleeFn)
	}
	sum.Calls = append(sum.Calls, cs)
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// ParsePos splits a serialized "file:line:col" position back into a
// token.Position (column optional).
func ParsePos(s string) token.Position {
	var p token.Position
	// Split from the right: the filename may contain colons on other
	// platforms, line and column never do.
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		p.Filename = s
		return p
	}
	last, rest := s[i+1:], s[:i]
	j := strings.LastIndexByte(rest, ':')
	if j < 0 {
		p.Filename = rest
		p.Line, _ = strconv.Atoi(last)
		return p
	}
	if line, err := strconv.Atoi(rest[j+1:]); err == nil {
		p.Filename = rest[:j]
		p.Line = line
		p.Column, _ = strconv.Atoi(last)
	} else {
		p.Filename = rest
		p.Line, _ = strconv.Atoi(last)
	}
	return p
}

// Package poolcheck enforces the sync.Pool ownership discipline the
// transport's frame-buffer recycling depends on. A pooled buffer has
// exactly one owner at a time: Put transfers ownership to the pool,
// after which any use (or a second Put) aliases memory that may
// already be in another goroutine's hands — corruption that surfaces
// far from the recycling site and never under light load.
//
// The analyzer recognises the repo's wrapper idiom through the
// package-local call graph: a function whose return value derives
// from pool.Get (directly or through another source, like getBuf or
// readBody) is a pool source; a function that hands a parameter to
// pool.Put (directly or through another release, like putBuf or
// releaseFrame) is a release. Three rules follow:
//
//  1. a value must not be released twice on one lexical path
//     (double-Put);
//  2. a value must not be used after its release on the same path
//     (use-after-Put) — reassignment starts a fresh lifetime, and
//     releases inside a branch do not poison the code after it;
//  3. pooled values must not cross the exported API: an exported
//     function returning a pool-backed buffer hands the caller memory
//     a later Put can yank back, and an exported function releasing
//     its own parameter recycles memory the caller still owns.
//
// Suppress a justified violation with `//mits:allow poolcheck <why>`.
package poolcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"

	"mits/internal/lint"
)

// Analyzer is the poolcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "poolcheck",
	Doc:  "check sync.Pool buffer lifetimes: double-Put, use-after-Put, and pooled values escaping the exported API",
	Run:  run,
}

func run(pass *lint.Pass) error {
	sources := sourceFuncs(pass)
	releases := releaseFuncs(pass)
	for _, fd := range pass.FuncDecls() {
		walkStmts(pass, releases, fd.Body.List, map[types.Object]token.Pos{})
		if fd.Name.IsExported() {
			checkBoundary(pass, sources, releases, fd)
		}
	}
	return nil
}

// poolCall classifies call as a sync.Pool Get or Put: it returns the
// method name ("Get" or "Put") when the callee is a method of
// sync.Pool, "" otherwise.
func poolCall(pass *lint.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
		return ""
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if !lint.IsNamed(t, "sync", "Pool") {
		return ""
	}
	return sel.Sel.Name
}

// ---- wrapper classification ----

// sourceFuncs finds package-local functions whose return value derives
// from a pool.Get, transitively through other sources.
func sourceFuncs(pass *lint.Pass) map[*types.Func]bool {
	sources := map[*types.Func]bool{}
	for {
		changed := false
		for _, fd := range pass.FuncDecls() {
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || sources[fn] {
				continue
			}
			pooled := pooledLocals(pass, sources, fd.Body)
			returns := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || returns {
					return !returns
				}
				for _, res := range ret.Results {
					if derives(pass, sources, pooled, res) {
						returns = true
					}
				}
				return true
			})
			if returns {
				sources[fn] = true
				changed = true
			}
		}
		if !changed {
			return sources
		}
	}
}

// releaseFuncs finds package-local functions that release a parameter
// into a pool, transitively through other releases. The value maps the
// indices of the released parameters.
func releaseFuncs(pass *lint.Pass) map[*types.Func]map[int]bool {
	releases := map[*types.Func]map[int]bool{}
	for {
		changed := false
		for _, fd := range pass.FuncDecls() {
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			params := pass.Params(fd)
			if !ok || len(params) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, arg := range releasedArgs(pass, releases, call) {
					obj := baseObj(pass, arg)
					if obj == nil {
						continue
					}
					for i, p := range params {
						if p == obj && !releases[fn][i] {
							if releases[fn] == nil {
								releases[fn] = map[int]bool{}
							}
							releases[fn][i] = true
							changed = true
						}
					}
				}
				return true
			})
		}
		if !changed {
			return releases
		}
	}
}

// releasedArgs returns the argument expressions that call hands over
// to a pool: pool.Put's argument, or the arguments in a known release
// function's released positions.
func releasedArgs(pass *lint.Pass, releases map[*types.Func]map[int]bool, call *ast.CallExpr) []ast.Expr {
	if poolCall(pass, call) == "Put" && len(call.Args) > 0 {
		return call.Args[:1]
	}
	fn := lint.Callee(pass.TypesInfo, call)
	if fn == nil || releases[fn] == nil {
		return nil
	}
	var out []ast.Expr
	for i := range releases[fn] {
		if i < len(call.Args) {
			out = append(out, call.Args[i])
		}
	}
	return out
}

// pooledLocals finds the local variables of body whose value derives
// from a pool source, to a fixpoint (covers buf := frameBuf(...) then
// nb := ...; buf = nb chains).
func pooledLocals(pass *lint.Pass, sources map[*types.Func]bool, body *ast.BlockStmt) map[types.Object]bool {
	pooled := map[types.Object]bool{}
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if i == 0 && len(as.Rhs) == 1 {
					rhs = as.Rhs[0] // v, ok := ... / v, err := ...
				} else {
					continue
				}
				if !derives(pass, sources, pooled, rhs) {
					continue
				}
				if obj := pass.Referent(id); obj != nil && !pooled[obj] {
					pooled[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			return pooled
		}
	}
}

// derives reports whether e's value derives from a pool source: a
// pool.Get (or source-function) result, a pooled local, or a slice /
// index / pointer view of one.
func derives(pass *lint.Pass, sources map[*types.Func]bool, pooled map[types.Object]bool, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.Referent(x)
		return obj != nil && pooled[obj]
	case *ast.SliceExpr:
		return derives(pass, sources, pooled, x.X)
	case *ast.IndexExpr:
		return derives(pass, sources, pooled, x.X)
	case *ast.StarExpr:
		return derives(pass, sources, pooled, x.X)
	case *ast.UnaryExpr:
		return x.Op == token.AND && derives(pass, sources, pooled, x.X)
	case *ast.TypeAssertExpr:
		return derives(pass, sources, pooled, x.X)
	case *ast.CallExpr:
		if poolCall(pass, x) == "Get" {
			return true
		}
		fn := lint.Callee(pass.TypesInfo, x)
		return fn != nil && sources[fn]
	}
	return false
}

// baseObj unwraps selectors, derefs, slices and indexes down to the
// base identifier's object (f.buf → f, (*b)[:0] → b), nil when the
// base is not a plain identifier.
func baseObj(pass *lint.Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.Ident:
			return pass.Referent(x)
		default:
			return nil
		}
	}
}

// ---- lifetime rules (double-Put, use-after-Put) ----

// walkStmts walks a body as a lexical path, tracking which variables
// have been released. Branches run on a copy of the state, so a
// conditional release (error paths that Put and return) does not
// poison the straight-line code after the branch.
func walkStmts(pass *lint.Pass, releases map[*types.Func]map[int]bool, stmts []ast.Stmt, state map[types.Object]token.Pos) {
	for _, s := range stmts {
		walkStmt(pass, releases, s, state)
	}
}

func cloneState(state map[types.Object]token.Pos) map[types.Object]token.Pos {
	out := make(map[types.Object]token.Pos, len(state))
	for k, v := range state {
		out[k] = v
	}
	return out
}

func walkStmt(pass *lint.Pass, releases map[*types.Func]map[int]bool, s ast.Stmt, state map[types.Object]token.Pos) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if vars := releasedIdents(pass, releases, call); len(vars) > 0 {
				for _, v := range vars {
					if first, done := state[v]; done {
						pass.Reportf(call.Pos(), "%s is returned to the pool twice (first at %s) — the second Put hands the same buffer to two owners",
							v.Name(), shortPos(pass, first))
						continue
					}
					state[v] = call.Pos()
				}
				return
			}
		}
		checkUses(pass, st, state)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			checkUses(pass, r, state)
		}
		for _, l := range st.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				// Reassignment starts a fresh lifetime.
				if obj := pass.Referent(id); obj != nil {
					delete(state, obj)
				}
				continue
			}
			checkUses(pass, l, state) // buf[0] = x after Put is still a use
		}
	case *ast.DeferStmt:
		// A deferred release runs at function exit, after every lexical
		// use below it: not a release on this path, and not a use.
	case *ast.BlockStmt:
		walkStmts(pass, releases, st.List, state)
	case *ast.IfStmt:
		if st.Init != nil {
			walkStmt(pass, releases, st.Init, state)
		}
		checkUses(pass, st.Cond, state)
		walkStmts(pass, releases, st.Body.List, cloneState(state))
		if st.Else != nil {
			walkStmt(pass, releases, st.Else, cloneState(state))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			walkStmt(pass, releases, st.Init, state)
		}
		if st.Cond != nil {
			checkUses(pass, st.Cond, state)
		}
		branch := cloneState(state)
		walkStmts(pass, releases, st.Body.List, branch)
		if st.Post != nil {
			walkStmt(pass, releases, st.Post, branch)
		}
	case *ast.RangeStmt:
		checkUses(pass, st.X, state)
		walkStmts(pass, releases, st.Body.List, cloneState(state))
	case *ast.SwitchStmt:
		if st.Init != nil {
			walkStmt(pass, releases, st.Init, state)
		}
		if st.Tag != nil {
			checkUses(pass, st.Tag, state)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					checkUses(pass, e, state)
				}
				walkStmts(pass, releases, cc.Body, cloneState(state))
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			walkStmt(pass, releases, st.Init, state)
		}
		checkUses(pass, st.Assign, state)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, releases, cc.Body, cloneState(state))
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := cloneState(state)
				if cc.Comm != nil {
					walkStmt(pass, releases, cc.Comm, branch)
				}
				walkStmts(pass, releases, cc.Body, branch)
			}
		}
	case nil:
	default:
		checkUses(pass, s, state)
	}
}

// releasedIdents returns the plain-identifier variables call releases
// (pool.Put(v), putBuf(v), releaseFrame(v)). Released expressions with
// a non-identifier base (putBuf(f.buf)) are not tracked: the lexical
// machine cannot follow field lifetimes, and flagging the owner would
// misfire on the release helper's own cleanup stores.
func releasedIdents(pass *lint.Pass, releases map[*types.Func]map[int]bool, call *ast.CallExpr) []types.Object {
	var out []types.Object
	for _, arg := range releasedArgs(pass, releases, call) {
		e := ast.Unparen(arg)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.Referent(id); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checkUses reports any mention of a released variable inside n.
func checkUses(pass *lint.Pass, n ast.Node, state map[types.Object]token.Pos) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Referent(id)
		if obj == nil {
			return true
		}
		if put, ok := state[obj]; ok {
			pass.Reportf(id.Pos(), "%s is used after being returned to the pool at %s — the pool may already have handed it to another goroutine",
				obj.Name(), shortPos(pass, put))
			delete(state, obj) // one report per lifetime, not per mention
		}
		return true
	})
}

// ---- exported-boundary rule ----

// checkBoundary flags exported functions that leak pool-owned memory
// out (returning a pooled buffer) or pull caller-owned memory in
// (releasing a parameter).
func checkBoundary(pass *lint.Pass, sources map[*types.Func]bool, releases map[*types.Func]map[int]bool, fd *ast.FuncDecl) {
	pooled := pooledLocals(pass, sources, fd.Body)
	params := pass.Params(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if derives(pass, sources, pooled, res) {
					pass.Reportf(res.Pos(), "exported %s returns a pool-backed buffer — the caller cannot know a later Put will yank it back; copy it or document transfer",
						fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			for _, arg := range releasedArgs(pass, releases, x) {
				if obj := baseObj(pass, arg); obj != nil && slices.Contains(params, obj) {
					pass.Reportf(arg.Pos(), "exported %s recycles its parameter %s into a pool — callers own their arguments; a pooled alias corrupts them later",
						fd.Name.Name, obj.Name())
				}
			}
		}
		return true
	})
}

// shortPos formats a position as file:line with the directory dropped.
func shortPos(pass *lint.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

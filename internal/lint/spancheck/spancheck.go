// Package spancheck flags trace spans that can exit their creating
// function without being ended.
//
// A span from StartSpan / ContinueSpan / SpanFromContext is only
// recorded — and only exported to the collector — when End runs. A
// path that returns early (typically an error return) without ending
// the span silently drops that hop from every trace that takes the
// path, which is precisely when the trace is most wanted: the flight
// recorder keeps error traces first. closecheck cannot express this —
// it accepts any Close anywhere in the function — so this analyzer is
// flow-sensitive: it walks the statement list, tracking which spans
// are live, and requires each to be ended or handed away on *every*
// path out of the function.
//
// A span stops being the creating function's problem when it
//
//   - has End called on it (directly or via defer — defer covers all
//     paths by construction),
//   - is captured by a function literal (the closure ends it later:
//     the pending-call map in atmrpc is the canonical shape),
//   - escapes: returned, passed as a call argument, stored in a
//     composite literal / field / variable, sent on a channel, or has
//     its address taken.
//
// Mere inspection — comparing the span to nil, reading sp.Trace or
// sp.Dur, calling sp.Context() — is not an escape: those are exactly
// the uses that appear on the buggy early-return paths.
//
// Paths merge conservatively: after if/else the live set is the union
// of the branches that fall through; a switch or select only
// terminates flow when it has a default/comm-complete structure and
// every clause terminates. Spans created inside a loop body must be
// resolved inside the body (each iteration makes a fresh one).
// Intentional exceptions take //mits:allow spancheck with a reason.
package spancheck

import (
	"go/ast"
	"go/types"

	"mits/internal/lint"
)

// Analyzer is the spancheck pass.
var Analyzer = &lint.Analyzer{
	Name: "spancheck",
	Doc:  "report trace spans (StartSpan/ContinueSpan/SpanFromContext) that miss End on some path",
	Run:  run,
}

// constructors are the call names whose results this analyzer tracks.
var constructors = map[string]bool{
	"StartSpan":       true,
	"ContinueSpan":    true,
	"SpanFromContext": true,
}

func run(pass *lint.Pass) error {
	for _, fd := range pass.FuncDecls() {
		c := &checker{pass: pass, parents: lint.Parents(fd.Body)}
		if live, terminated := c.stmts(fd.Body.List, liveSet{}); !terminated {
			c.reportLive(live)
		}
	}
	return nil
}

// acq is one tracked span acquisition. reported is shared across path
// copies so each leaky span is diagnosed once, at its creation site.
type acq struct {
	v        *types.Var
	call     *ast.CallExpr
	reported bool
}

// liveSet maps span variables to their acquisitions on one path.
// Releasing (End, capture, escape) deletes the entry from that path's
// copy; merging paths unions the survivors.
type liveSet map[*types.Var]*acq

func (l liveSet) clone() liveSet {
	c := make(liveSet, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

func union(a, b liveSet) liveSet {
	out := a.clone()
	for k, v := range b {
		out[k] = v
	}
	return out
}

type checker struct {
	pass    *lint.Pass
	parents map[ast.Node]ast.Node
}

func (c *checker) reportLive(live liveSet) {
	for _, a := range live {
		if a.reported {
			continue
		}
		a.reported = true
		c.pass.Reportf(a.call.Pos(),
			"span %s does not reach End on every path out of the function; end it (error returns too), hand it off, or annotate //mits:allow spancheck",
			a.v.Name())
	}
}

// stmts interprets a statement list against the incoming live set,
// returning the live set at fall-through and whether every path
// through the list terminates (return / branch / panic-shaped flow).
func (c *checker) stmts(list []ast.Stmt, live liveSet) (liveSet, bool) {
	for _, s := range list {
		var terminated bool
		live, terminated = c.stmt(s, live)
		if terminated {
			return live, true
		}
	}
	return live, false
}

func (c *checker) stmt(s ast.Stmt, live liveSet) (liveSet, bool) {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			c.scan(e, live)
		}
		c.reportLive(live)
		return live, true

	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; the target
		// context re-checks what it must. Conservative: stop here.
		return live, true

	case *ast.BlockStmt:
		return c.stmts(st.List, live)

	case *ast.LabeledStmt:
		return c.stmt(st.Stmt, live)

	case *ast.IfStmt:
		if st.Init != nil {
			live, _ = c.stmt(st.Init, live)
		}
		c.scan(st.Cond, live)
		thenLive, thenTerm := c.stmts(st.Body.List, live.clone())
		elseLive, elseTerm := live, false
		if st.Else != nil {
			elseLive, elseTerm = c.stmt(st.Else, live.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return liveSet{}, true
		case thenTerm:
			return elseLive, false
		case elseTerm:
			return thenLive, false
		default:
			return union(thenLive, elseLive), false
		}

	case *ast.ForStmt:
		if st.Init != nil {
			live, _ = c.stmt(st.Init, live)
		}
		if st.Cond != nil {
			c.scan(st.Cond, live)
		}
		return c.loopBody(st.Body.List, st.Post, live)

	case *ast.RangeStmt:
		c.scan(st.X, live)
		return c.loopBody(st.Body.List, nil, live)

	case *ast.SwitchStmt:
		if st.Init != nil {
			live, _ = c.stmt(st.Init, live)
		}
		if st.Tag != nil {
			c.scan(st.Tag, live)
		}
		return c.clauses(st.Body.List, live, false)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			live, _ = c.stmt(st.Init, live)
		}
		c.scan(st.Assign, live)
		return c.clauses(st.Body.List, live, false)

	case *ast.SelectStmt:
		// A select without default still runs exactly one clause, so
		// unlike a switch it terminates when all clauses do.
		return c.clauses(st.Body.List, live, true)

	case *ast.DeferStmt:
		c.scan(st.Call, live)
		return live, false

	case *ast.GoStmt:
		c.scan(st.Call, live)
		return live, false

	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			c.scan(rhs, live)
		}
		for _, lhs := range st.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				c.scan(lhs, live) // h.sp = x, m[k] = x: index/field exprs may use spans
			}
		}
		if len(st.Rhs) == 1 {
			if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok && isConstructor(call) {
				for _, lhs := range st.Lhs {
					if v := c.lhsVar(lhs); v != nil && hasEndMethod(v.Type()) {
						live[v] = &acq{v: v, call: call}
					}
				}
			}
		}
		return live, false

	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return live, false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, val := range vs.Values {
				c.scan(val, live)
			}
			if len(vs.Values) != 1 {
				continue
			}
			call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
			if !ok || !isConstructor(call) {
				continue
			}
			for _, name := range vs.Names {
				if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok && hasEndMethod(v.Type()) {
					live[v] = &acq{v: v, call: call}
				}
			}
		}
		return live, false

	default:
		if s != nil {
			c.scan(s, live)
		}
		return live, false
	}
}

// loopBody interprets a loop body on a copy of the live set. Spans
// created inside the body leak once per iteration if still live at
// the body's end, so they are reported there; spans from outside the
// loop released in the body are accepted (optimistic: loops that
// guard an End are rare and a zero-iteration miss is the cheaper
// error direction than flagging every End-in-loop).
func (c *checker) loopBody(body []ast.Stmt, post ast.Stmt, live liveSet) (liveSet, bool) {
	bodyLive, _ := c.stmts(body, live.clone())
	if post != nil {
		c.stmt(post, bodyLive)
	}
	inner := liveSet{}
	for v, a := range bodyLive {
		if _, outer := live[v]; !outer {
			inner[v] = a
		}
	}
	c.reportLive(inner)
	// Fall-through set: outer spans not released by the body.
	out := liveSet{}
	for v, a := range live {
		if _, still := bodyLive[v]; still {
			out[v] = a
		}
	}
	return out, false
}

// clauses interprets switch/select clause bodies, each on its own copy
// of the live set, and merges the falling-through ones. exhaustive
// marks constructs where exactly one clause always runs (select);
// switches additionally need a default clause to terminate flow.
func (c *checker) clauses(list []ast.Stmt, live liveSet, exhaustive bool) (liveSet, bool) {
	if len(list) == 0 {
		return live, false
	}
	hasDefault := false
	allTerm := true
	var outs []liveSet
	for _, cl := range list {
		branch := live.clone()
		var body []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				c.scan(e, branch)
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				branch, _ = c.stmt(cc.Comm, branch)
			}
			body = cc.Body
		default:
			continue
		}
		out, term := c.stmts(body, branch)
		if !term {
			allTerm = false
			outs = append(outs, out)
		}
	}
	if allTerm && (exhaustive || hasDefault) {
		return liveSet{}, true
	}
	merged := liveSet{}
	if !exhaustive && !hasDefault {
		merged = live.clone() // the no-clause-matched path
	}
	for _, o := range outs {
		merged = union(merged, o)
	}
	return merged, false
}

// scan walks an expression (or opaque statement) releasing every live
// span whose use context ends it or hands it away.
func (c *checker) scan(n ast.Node, live liveSet) {
	if n == nil || len(live) == 0 {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if _, isLive := live[v]; !isLive {
			return true
		}
		if c.releases(id) {
			delete(live, v)
		}
		return true
	})
}

// releases classifies one use of a live span: does this context end
// the span or transfer responsibility for it?
func (c *checker) releases(id *ast.Ident) bool {
	// Any use inside a function literal releases: the closure outlives
	// this path and is trusted to End the span (deferred closures and
	// the pending-reply map both look like this).
	for p := c.parents[id]; p != nil; p = c.parents[p] {
		if _, ok := p.(*ast.FuncLit); ok {
			return true
		}
	}
	switch p := c.parents[id].(type) {
	case *ast.SelectorExpr:
		// sp.End(...) ends it; sp.Context(), sp.Trace etc. only
		// inspect it.
		call, ok := c.parents[p].(*ast.CallExpr)
		return ok && call.Fun == p && p.Sel.Name == "End"
	case *ast.IndexExpr:
		// m[sp] as a key is bizarre but is a store-shaped use.
		return p.Index == id
	}
	return lint.Escapes(c.parents, id)
}

// lhsVar resolves an assignment target identifier to its variable,
// through either a fresh definition (sp := ...) or a reassignment of
// an earlier declaration (var sp *Span; sp = ...).
func (c *checker) lhsVar(lhs ast.Expr) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// hasEndMethod reports whether t's method set carries End(error), the
// span's outcome.
func hasEndMethod(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "End")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() == 1 && sig.Results().Len() == 0
}

// isConstructor reports whether a call's callee is named like a span
// constructor (package function or registry method).
func isConstructor(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return constructors[fun.Name]
	case *ast.SelectorExpr:
		return constructors[fun.Sel.Name]
	}
	return false
}

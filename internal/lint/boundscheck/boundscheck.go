// Package boundscheck flags []byte indexing in decode paths that no
// length guard dominates.
//
// The byte-level decoders — transport frames, AAL5 trailers, the MHEG
// binary codec — are the code that hostile or truncated input reaches
// first, and an unguarded data[off] there turns a short frame into a
// panic that takes the whole site down. The analyzer runs a lexical
// reaching-guard analysis (guards, below) over every function and
// reports an index or slice expression on a []byte value when
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
	"slices"

	"mits/internal/lint"
)

// Analyzer is the boundscheck pass.
var Analyzer = &lint.Analyzer{
	Name: "boundscheck",
	Doc:  "report []byte indexing in decode paths not dominated by a length guard",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, fd := range pass.FuncDecls() {
		checkFunc(pass, fd)
	}
	return nil
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	reach := newGuards(pass, fd.Body)
	locals := locallySized(pass, fd)
	params := pass.Params(fd)
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
		if reach.facts[n][obj] {
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

// externallySized reports whether the object is data from outside the
// function: a parameter or a struct field.
func externallySized(obj types.Object, params []types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && (v.IsField() || slices.Contains(params, obj))
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

// guards answers, for a function body, whether a given use of a value
// is dominated by a length guard on that value: an if / for condition
// or switch case mentioning len(x) (directly or through an alias
// n := len(x)), a range loop over x, or an earlier if condition in the
// same flow — both the terminating `if len(x) < 8 { return }` and the
// clamping `if end > len(x) { end = len(x) }` count. The analysis is
// lexical: facts flow into nested blocks and forward past if
// statements, and are dropped when a loop or switch body ends.
type guards struct {
	pass *lint.Pass
	// facts records, for every expression the walk visits, the set of
	// objects with a reaching guard.
	facts map[ast.Node]map[types.Object]bool
	// aliases maps n → x for n := len(x) assignments (function-wide;
	// re-binding an alias is rare enough to ignore).
	aliases map[types.Object]types.Object
}

// newGuards analyzes one function body.
func newGuards(pass *lint.Pass, body *ast.BlockStmt) *guards {
	g := &guards{
		pass:    pass,
		facts:   make(map[ast.Node]map[types.Object]bool),
		aliases: make(map[types.Object]types.Object),
	}
	g.collectAliases(body)
	g.walkBlock(body.List, make(map[types.Object]bool))
	return g
}

// collectAliases records n := len(x) bindings.
func (g *guards) collectAliases(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			lhs := g.pass.TypesInfo.Defs[id]
			if lhs == nil {
				lhs = g.pass.TypesInfo.Uses[id]
			}
			if lhs == nil {
				continue
			}
			if base := g.lenArg(as.Rhs[i]); base != nil {
				g.aliases[lhs] = base
			}
		}
		return true
	})
}

// lenArg returns the referent of x when e is exactly len(x).
func (g *guards) lenArg(e ast.Expr) types.Object {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "len" {
		return nil
	}
	if b, ok := g.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "len" {
		return nil
	}
	return g.pass.Referent(call.Args[0])
}

// lenMentions collects every object whose length the expression
// examines: len(x) calls and identifiers aliased to one.
func (g *guards) lenMentions(e ast.Expr, into map[types.Object]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if base := g.lenArg(expr); base != nil {
			into[base] = true
		}
		if id, ok := expr.(*ast.Ident); ok {
			if obj := g.pass.TypesInfo.Uses[id]; obj != nil {
				if base, ok := g.aliases[obj]; ok {
					into[base] = true
				}
			}
		}
		return true
	})
}

func cloneFacts(in map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// recordExprs stamps the current facts onto every expression node of stmt
// (excluding nested statements, which the walk visits with their own
// facts).
func (g *guards) recordExprs(n ast.Node, facts map[types.Object]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return true
		}
		if _, ok := c.(ast.Expr); ok {
			g.facts[c] = facts
		}
		return true
	})
}

// walkBlock walks statements in order, threading the fact set.
func (g *guards) walkBlock(stmts []ast.Stmt, facts map[types.Object]bool) {
	for _, s := range stmts {
		facts = g.walkStmt(s, facts)
	}
}

// walkStmt records facts for s's expressions, descends into nested
// blocks with extended facts, and returns the facts holding after s.
func (g *guards) walkStmt(s ast.Stmt, facts map[types.Object]bool) map[types.Object]bool {
	switch s := s.(type) {
	case *ast.IfStmt:
		inner := facts
		if s.Init != nil {
			inner = g.walkStmt(s.Init, inner)
		}
		g.recordExprs(s.Cond, inner)
		condFacts := cloneFacts(inner)
		g.lenMentions(s.Cond, condFacts)
		g.walkBlock(s.Body.List, condFacts)
		switch el := s.Else.(type) {
		case *ast.BlockStmt:
			g.walkBlock(el.List, condFacts)
		case *ast.IfStmt:
			g.walkStmt(el, condFacts)
		}
		// The condition's length examination keeps counting afterwards —
		// both the terminating guard `if len(b) < 8 { return }` and the
		// clamping guard `if end >= len(b) { end = len(b) }` establish
		// that the code below runs with len(b) examined.
		return condFacts
	case *ast.ForStmt:
		inner := facts
		if s.Init != nil {
			inner = g.walkStmt(s.Init, inner)
		}
		g.recordExprs(s.Cond, inner)
		condFacts := cloneFacts(inner)
		g.lenMentions(s.Cond, condFacts)
		if s.Post != nil {
			g.walkStmt(s.Post, condFacts)
		}
		g.walkBlock(s.Body.List, condFacts)
		return facts
	case *ast.RangeStmt:
		g.recordExprs(s.X, facts)
		bodyFacts := cloneFacts(facts)
		// for i := range x dominates x[i]; treat a range over x as a
		// length examination of x.
		if obj := g.pass.Referent(s.X); obj != nil {
			bodyFacts[obj] = true
		}
		g.lenMentions(s.X, bodyFacts)
		g.walkBlock(s.Body.List, bodyFacts)
		return facts
	case *ast.SwitchStmt:
		inner := facts
		if s.Init != nil {
			inner = g.walkStmt(s.Init, inner)
		}
		g.recordExprs(s.Tag, inner)
		tagFacts := cloneFacts(inner)
		g.lenMentions(s.Tag, tagFacts)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseFacts := cloneFacts(tagFacts)
			for _, e := range cc.List {
				g.recordExprs(e, tagFacts)
				g.lenMentions(e, caseFacts)
			}
			g.walkBlock(cc.Body, caseFacts)
		}
		return inner
	case *ast.TypeSwitchStmt:
		inner := facts
		if s.Init != nil {
			inner = g.walkStmt(s.Init, inner)
		}
		g.recordExprs(s.Assign, inner)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			g.walkBlock(cc.Body, cloneFacts(inner))
		}
		return inner
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			commFacts := cloneFacts(facts)
			if cc.Comm != nil {
				commFacts = g.walkStmt(cc.Comm, commFacts)
			}
			g.walkBlock(cc.Body, commFacts)
		}
		return facts
	case *ast.BlockStmt:
		g.walkBlock(s.List, cloneFacts(facts))
		return facts
	case *ast.LabeledStmt:
		return g.walkStmt(s.Stmt, facts)
	case *ast.DeferStmt:
		// A deferred body runs last; everything established anywhere in
		// the function may or may not hold, so give it only current facts.
		g.recordExprs(s.Call, facts)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			g.walkBlock(lit.Body.List, cloneFacts(facts))
		}
		return facts
	case *ast.GoStmt:
		g.recordExprs(s.Call, facts)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			g.walkBlock(lit.Body.List, cloneFacts(facts))
		}
		return facts
	default:
		// Leaf statements (assign, expr, return, incdec, send, decl...):
		// record facts for their expressions, walking nested func literal
		// bodies with the current facts.
		g.recordExprs(s, facts)
		ast.Inspect(s, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				g.walkBlock(lit.Body.List, cloneFacts(facts))
				return false
			}
			return true
		})
		return facts
	}
}

// Dataflow layer: the shared package-local analyses the deeper
// analyzers (closecheck, boundscheck, lockcheck, and the concurrency
// suite chanwait/atomicmix/poolcheck) build on. Four pieces:
//
//   - CallGraph — a static, package-local call graph over function
//     declarations, resolving calls (generic ones included) to their
//     declarations.
//
//   - Parents — an AST parent map, so expression-level analyses can
//     classify how a value is used (returned, stored, passed on).
//
//   - Guards — a reaching length-guard analysis for slice indexing: a
//     lexical walk that tracks, statement by statement, which values
//     have had `len(x)` examined by a dominating or preceding condition
//     (if / for condition, switch case, range loop), with alias
//     tracking for `n := len(x)`.
//
//   - Conc — the concurrency-protocol facts: every channel operation
//     in the package (send, receive, close, range; plain or inside a
//     select) resolved to the channel's variable object, every
//     variable whose address reaches a sync/atomic function, and
//     classification of sync.Pool Get/Put calls. These are the raw
//     material the protocol analyzers reason over: "who can complete
//     this channel", "who touches this field outside the atomic
//     discipline", "where does this pooled buffer go after Put".
//
// Everything here is deliberately package-local and flow-insensitive
// beyond lexical dominance — the same trade the per-function analyzers
// make: cheap, deterministic, and wrong only in the direction of
// asking for an //mits:allow with a justification.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ---- parent map ----

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

// ---- referent objects ----

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

// HasMethod reports whether t's method set (taking the address if
// needed) contains a niladic method with one of the given names.
func HasMethod(t types.Type, names ...string) bool {
	for _, name := range names {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if fn, ok := obj.(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Params().Len() == 0 {
				return true
			}
		}
	}
	return false
}

// ---- call graph ----

// FuncInfo is one function or method declaration in the package.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
}

// CallGraph is a static, package-local call graph.
type CallGraph struct {
	pass  *Pass
	funcs map[*types.Func]*FuncInfo
}

// NewCallGraph builds the call graph for the pass's package.
func NewCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{pass: pass, funcs: make(map[*types.Func]*FuncInfo)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.funcs[obj] = &FuncInfo{Obj: obj, Decl: fd}
			}
		}
	}
	return g
}

// Funcs returns the package's function declarations.
func (g *CallGraph) Funcs() map[*types.Func]*FuncInfo { return g.funcs }

// uninstantiate strips the explicit type arguments off a generic
// function named in call position — f[T] or pkg.f[K, V] — so callee
// resolution sees the same f or pkg.f an inferred call spells. Every
// other expression, an element of a slice or map of funcs included, is
// returned as it came (minus parentheses).
func uninstantiate(info *types.Info, fun ast.Expr) ast.Expr {
	fun = ast.Unparen(fun)
	var x ast.Expr
	switch e := fun.(type) {
	case *ast.IndexExpr:
		x = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		x = ast.Unparen(e.X)
	default:
		return fun
	}
	id, _ := x.(*ast.Ident)
	if sel, ok := x.(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	if id != nil {
		if _, generic := info.Uses[id].(*types.Func); generic {
			return x
		}
	}
	return fun
}

// Callee statically resolves a call expression to a function object
// (package-local or not, generic or not), nil when dynamic.
func (g *CallGraph) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := uninstantiate(g.pass.TypesInfo, call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := g.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// ---- reaching length guards ----

// Guards answers, for a function body, whether a given use of a value
// is dominated by a length guard on that value: an if / for condition
// or switch case mentioning len(x) (directly or through an alias
// n := len(x)), a range loop over x, or an earlier if condition in the
// same flow — both the terminating `if len(x) < 8 { return }` and the
// clamping `if end > len(x) { end = len(x) }` count. The analysis is
// lexical: facts flow into nested blocks and forward past if
// statements, and are dropped when a loop or switch body ends.
type Guards struct {
	pass *Pass
	// guardedAt records, for every expression position asked about,
	// the set of objects with a reaching guard.
	facts map[ast.Node]map[types.Object]bool
	// aliases maps n → x for n := len(x) assignments (function-wide;
	// re-binding an alias is rare enough to ignore).
	aliases map[types.Object]types.Object
}

// NewGuards analyzes one function body.
func NewGuards(pass *Pass, body *ast.BlockStmt) *Guards {
	g := &Guards{
		pass:    pass,
		facts:   make(map[ast.Node]map[types.Object]bool),
		aliases: make(map[types.Object]types.Object),
	}
	g.collectAliases(body)
	g.walkBlock(body.List, make(map[types.Object]bool))
	return g
}

// Guarded reports whether a reaching length guard covers obj at node n
// (n must be a node the walk recorded — any expression inside a
// statement of the analyzed body).
func (g *Guards) Guarded(n ast.Node, obj types.Object) bool {
	return g.facts[n][obj]
}

// collectAliases records n := len(x) bindings.
func (g *Guards) collectAliases(body ast.Node) {
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
func (g *Guards) lenArg(e ast.Expr) types.Object {
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
func (g *Guards) lenMentions(e ast.Expr, into map[types.Object]bool) {
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

// record stamps the current facts onto every expression node of stmt
// (excluding nested statements, which the walk visits with their own
// facts).
func (g *Guards) recordExprs(n ast.Node, facts map[types.Object]bool) {
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
func (g *Guards) walkBlock(stmts []ast.Stmt, facts map[types.Object]bool) {
	for _, s := range stmts {
		facts = g.walkStmt(s, facts)
	}
}

// walkStmt records facts for s's expressions, descends into nested
// blocks with extended facts, and returns the facts holding after s.
func (g *Guards) walkStmt(s ast.Stmt, facts map[types.Object]bool) map[types.Object]bool {
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

// ---- concurrency-protocol facts ----

// ChanOpKind classifies one channel operation.
type ChanOpKind int

// Channel operation kinds.
const (
	ChanSend ChanOpKind = iota
	ChanRecv
	ChanClose
	ChanRange
)

func (k ChanOpKind) String() string {
	switch k {
	case ChanSend:
		return "send"
	case ChanRecv:
		return "receive"
	case ChanClose:
		return "close"
	case ChanRange:
		return "range"
	}
	return "chan-op"
}

// ChanOp is one channel operation, resolved to the channel's
// variable-like object (nil when the channel expression is a call
// result or other unresolvable form).
type ChanOp struct {
	Kind ChanOpKind
	Pos  token.Pos
	Chan ast.Expr     // the channel expression
	Obj  types.Object // Referent(Chan); nil when unresolvable

	// Select is the enclosing select statement when the operation is a
	// communication case of one; nil for plain statements. A plain send
	// or receive always blocks; a select case blocks only when the
	// select has no default (SelectDefault reports that).
	Select        *ast.SelectStmt
	SelectDefault bool
}

// Blocking reports whether the operation can park its goroutine
// indefinitely: a plain send/receive/range, or a case of a select with
// no default clause. close never blocks.
func (op ChanOp) Blocking() bool {
	if op.Kind == ChanClose {
		return false
	}
	if op.Select != nil {
		return !op.SelectDefault
	}
	return true
}

// Conc holds the package's concurrency-protocol facts.
type Conc struct {
	pass *Pass

	// Ops is every channel operation in the package, in file order.
	Ops []ChanOp

	// OpaqueChans is the set of channel objects used in some way other
	// than a direct channel operation or initialization — passed to a
	// function, stored into another structure, captured by an interface
	// conversion. A counterpart for such a channel may live outside the
	// analyzable surface, so completion reasoning must not assume the
	// package-local view is total.
	OpaqueChans map[types.Object]bool

	// AtomicUses maps each variable-like object whose address is passed
	// to a sync/atomic function to those call positions.
	AtomicUses map[types.Object][]token.Pos
}

// NewConc extracts the package's concurrency facts.
func NewConc(pass *Pass) *Conc {
	c := &Conc{
		pass:        pass,
		OpaqueChans: make(map[types.Object]bool),
		AtomicUses:  make(map[types.Object][]token.Pos),
	}
	for _, f := range pass.Files {
		c.collectFile(f)
	}
	return c
}

func (c *Conc) collectFile(f *ast.File) {
	parents := Parents(f)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			c.addOp(parents, ChanOp{Kind: ChanSend, Pos: n.Pos(), Chan: n.Chan}, n)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.addOp(parents, ChanOp{Kind: ChanRecv, Pos: n.Pos(), Chan: n.X}, n)
			}
		case *ast.RangeStmt:
			if t := c.pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					c.addOp(parents, ChanOp{Kind: ChanRange, Pos: n.Pos(), Chan: n.X}, n)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					c.addOp(parents, ChanOp{Kind: ChanClose, Pos: n.Pos(), Chan: n.Args[0]}, n)
				}
			}
			c.collectAtomic(n)
		}
		return true
	})
	// Opaque-use scan: any appearance of a channel-typed variable that
	// the op walk above (or plain initialization) does not account for.
	ast.Inspect(f, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		obj := c.pass.Referent(e)
		if obj == nil {
			return true
		}
		if t := obj.Type(); t == nil {
			return true
		} else if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return true
		}
		if c.chanUseAccounted(parents, e) {
			return true
		}
		c.OpaqueChans[obj] = true
		return true
	})
}

// chanUseAccounted reports whether this appearance of a channel-valued
// expression is one the protocol analysis understands: a direct channel
// operation, a len/cap inspection, an initialization (assignment LHS,
// composite-literal key, declaration), a nil comparison, or the inner
// part of a larger selector resolving to the same op.
func (c *Conc) chanUseAccounted(parents map[ast.Node]ast.Node, e ast.Expr) bool {
	parent := parents[e]
	// Unwrap parens and selector composition: for a.b.ch the idents a
	// and a.b are bases of the selector, not independent uses.
	switch p := parent.(type) {
	case *ast.ParenExpr:
		return c.chanUseAccounted(parents, p)
	case *ast.SelectorExpr:
		if p.X == e {
			return true // base of a selector; the selector itself is classified
		}
		// e is the Sel ident of a selector: classify the whole selector.
		return c.chanUseAccounted(parents, p)
	case *ast.SendStmt:
		return p.Chan == e
	case *ast.UnaryExpr:
		return p.Op == token.ARROW
	case *ast.RangeStmt:
		return p.X == e
	case *ast.CallExpr:
		if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
			if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "close", "len", "cap":
					return true
				}
			}
		}
		return false // passed to a function: opaque
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == e {
				return true // being (re)initialized
			}
		}
		return false // RHS of an assignment to something else: stored away
	case *ast.KeyValueExpr:
		return p.Key == e // composite-literal field name, not a value use
	case *ast.BinaryExpr:
		// nil comparison is an inspection, not an escape.
		if p.Op == token.EQL || p.Op == token.NEQ {
			return true
		}
		return false
	case *ast.ValueSpec, *ast.Field:
		return true // declaration site
	}
	return false
}

func (c *Conc) addOp(parents map[ast.Node]ast.Node, op ChanOp, at ast.Node) {
	op.Obj = c.pass.Referent(op.Chan)
	// Find an enclosing select communication clause, if any: the
	// operation must be the CommClause's comm statement (or its direct
	// expression), not buried in a case body.
	for n := at; n != nil; n = parents[n] {
		if clause, ok := n.(*ast.CommClause); ok {
			// A CommClause's parent is the select's body block, whose
			// parent is the SelectStmt itself.
			if sel, ok := parents[parents[clause]].(*ast.SelectStmt); ok && containsComm(clause, at) {
				op.Select = sel
				op.SelectDefault = selectHasDefault(sel)
			}
			break
		}
		if _, ok := n.(*ast.BlockStmt); ok {
			break // inside a case body (or any block), not the comm itself
		}
	}
	c.Ops = append(c.Ops, op)
}

// containsComm reports whether node is part of the clause's comm
// statement (as opposed to its body).
func containsComm(clause *ast.CommClause, node ast.Node) bool {
	if clause.Comm == nil {
		return false
	}
	found := false
	ast.Inspect(clause.Comm, func(n ast.Node) bool {
		if n == node {
			found = true
		}
		return !found
	})
	return found
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, s := range sel.Body.List {
		if cc, ok := s.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// collectAtomic records &x arguments of sync/atomic function calls.
func (c *Conc) collectAtomic(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	for _, arg := range call.Args {
		ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || ue.Op != token.AND {
			continue
		}
		if obj := c.pass.Referent(ue.X); obj != nil {
			c.AtomicUses[obj] = append(c.AtomicUses[obj], call.Pos())
		}
	}
}

// Completers summarizes, per channel object, who can complete an
// operation on it package-wide.
type Completers struct {
	Senders   map[types.Object][]token.Pos // sends (incl. select cases)
	Receivers map[types.Object][]token.Pos // receives and ranges
	Closers   map[types.Object][]token.Pos // close calls
}

// Completers indexes the package's channel operations by object.
func (c *Conc) Completers() Completers {
	out := Completers{
		Senders:   make(map[types.Object][]token.Pos),
		Receivers: make(map[types.Object][]token.Pos),
		Closers:   make(map[types.Object][]token.Pos),
	}
	for _, op := range c.Ops {
		if op.Obj == nil {
			continue
		}
		switch op.Kind {
		case ChanSend:
			out.Senders[op.Obj] = append(out.Senders[op.Obj], op.Pos)
		case ChanRecv, ChanRange:
			out.Receivers[op.Obj] = append(out.Receivers[op.Obj], op.Pos)
		case ChanClose:
			out.Closers[op.Obj] = append(out.Closers[op.Obj], op.Pos)
		}
	}
	return out
}

// ---- sync types ----

// syncPkgName returns the package path and type name of a named type,
// ("", "") for anything else.
func syncPkgName(t types.Type) (pkg, name string) {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// IsMutex reports whether t is sync.Mutex or sync.RWMutex.
func IsMutex(t types.Type) bool {
	pkg, name := syncPkgName(t)
	return pkg == "sync" && (name == "Mutex" || name == "RWMutex")
}

// SelfSynchronized reports whether t belongs to package sync or
// sync/atomic (Mutex, WaitGroup, Once, atomic.Int64, ...): a field of
// such a type synchronizes itself and needs no lock.
func SelfSynchronized(t types.Type) bool {
	pkg, _ := syncPkgName(t)
	return pkg == "sync" || pkg == "sync/atomic"
}

// IsPoolType reports whether t is sync.Pool (or a pointer to it).
func IsPoolType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	pkg, name := syncPkgName(t)
	return pkg == "sync" && name == "Pool"
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

// ---- sync.Pool classification ----

// PoolCall classifies call as a sync.Pool Get or Put: it returns the
// method name ("Get" or "Put") when the callee is a method of
// sync.Pool, "" otherwise.
func (p *Pass) PoolCall(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if name != "Get" && name != "Put" {
		return ""
	}
	if !IsPoolType(p.TypesInfo.TypeOf(sel.X)) {
		return ""
	}
	return name
}

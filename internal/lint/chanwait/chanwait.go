// Package chanwait flags blocking channel operations that a teardown
// path cannot release.
//
// The multiplexed transport (DESIGN §10) hangs a bounded-delay
// guarantee on hand-built channel protocols: callers park on send
// queues and completion channels, and the failure path — fail(),
// Close(), a dead peer — must be able to wake every one of them. The
// post-PR-5 review found the exact bug this analyzer encodes: the
// enqueue select in TCPClient.issue waited on the send queue and the
// quit channel but not on the call's own done channel, so a caller
// blocked on a full queue slept through fail() completing its call and
// hung forever. Two rules:
//
//   - completion-wait: a select (without default) that sends a value
//     whose struct type carries a completion channel — a chan-typed
//     field some package function close()s — must also wait on that
//     completion channel (`case <-v.done:`). Without the arm, a
//     teardown that completes the parked value cannot release the
//     blocked sender.
//
//   - counterpart: a blocking send or receive on a package-private
//     channel (an unexported field of a package-local struct, or an
//     unexported package-level var) must have a completing counterpart
//     somewhere in the package — a receive or range for a send; a send
//     or close for a receive. A channel nobody else can even name, with
//     no counterpart in the package, blocks its goroutine forever.
//     Channels that escape the package-local view (passed to calls,
//     stored into other structures) are exempt: their counterpart may
//     live elsewhere.
//
// Both rules are package-local and syntactic; a protocol whose
// counterpart is genuinely external takes //mits:allow chanwait with a
// reason.
package chanwait

import (
	"go/ast"
	"go/token"
	"go/types"

	"mits/internal/lint"
)

// Analyzer is the chanwait pass.
var Analyzer = &lint.Analyzer{
	Name: "chanwait",
	Doc:  "report blocking channel operations a teardown path cannot release (missing completion-channel arm, or no package-local counterpart)",
	Run:  run,
}

// opKind classifies one channel operation; kinds combine as a set.
type opKind uint8

const (
	opSend opKind = 1 << iota
	opRecv
	opClose
	opRange
)

// chanOp is one channel operation, resolved to the channel's
// variable-like object (nil when the channel expression is a call
// result or other unresolvable form).
type chanOp struct {
	kind opKind
	at   ast.Node // the send statement, receive expression, range or close call
	ch   ast.Expr
	obj  types.Object
	// sel is the enclosing select when the operation is one of its
	// communication cases; a case blocks only when the select has no
	// default.
	sel        *ast.SelectStmt
	selDefault bool
}

// blocking reports whether the operation can park its goroutine
// indefinitely: a plain send/receive/range, or a case of a select with
// no default clause. close never blocks.
func (op chanOp) blocking() bool {
	return op.kind != opClose && (op.sel == nil || !op.selDefault)
}

// facts are the package's channel facts: every operation in file
// order, the kinds of operation each channel object sees, and the
// channels used in some way other than a direct operation or an
// initialization — passed to a function, stored into another
// structure, converted to an interface. A counterpart for such a
// channel may live outside the package-local view.
type facts struct {
	ops    []chanOp
	kinds  map[types.Object]opKind
	opaque map[types.Object]bool
}

func run(pass *lint.Pass) error {
	c := &facts{kinds: make(map[types.Object]opKind), opaque: make(map[types.Object]bool)}
	for _, f := range pass.Files {
		c.collect(pass, f)
	}
	if len(c.ops) == 0 {
		return nil
	}
	checkCompletionWaits(pass, c)
	checkCounterparts(pass, c)
	return nil
}

func (c *facts) collect(pass *lint.Pass, f *ast.File) {
	parents := lint.Parents(f)
	add := func(kind opKind, at ast.Node, ch ast.Expr) {
		op := chanOp{kind: kind, at: at, ch: ch, obj: pass.Referent(ch)}
		// An operation is a select case when it is (part of) a comm
		// clause's comm statement — not buried in a case body. A
		// CommClause's parent is the select's body block, whose parent
		// is the SelectStmt itself.
		for n := at; n != nil; n = parents[n] {
			if clause, ok := n.(*ast.CommClause); ok {
				if sel, ok := parents[parents[clause]].(*ast.SelectStmt); ok && containsComm(clause, at) {
					op.sel, op.selDefault = sel, selectHasDefault(sel)
				}
				break
			}
			if _, ok := n.(*ast.BlockStmt); ok {
				break
			}
		}
		c.ops = append(c.ops, op)
		if op.obj != nil {
			c.kinds[op.obj] |= kind
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			add(opSend, n, n.Chan)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(opRecv, n, n.X)
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					add(opRange, n, n.X)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					add(opClose, n, n.Args[0])
				}
			}
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
		obj := pass.Referent(e)
		if obj == nil || obj.Type() == nil {
			return true
		}
		if _, isChan := obj.Type().Underlying().(*types.Chan); isChan && !chanUseAccounted(pass, parents, e) {
			c.opaque[obj] = true
		}
		return true
	})
}

// chanUseAccounted reports whether this appearance of a channel-valued
// expression is one the protocol analysis understands: a direct channel
// operation, a len/cap inspection, an initialization (assignment LHS,
// composite-literal key, declaration), a nil comparison, or the inner
// part of a larger selector resolving to the same op.
func chanUseAccounted(pass *lint.Pass, parents map[ast.Node]ast.Node, e ast.Expr) bool {
	// Unwrap parens and selector composition: for a.b.ch the idents a
	// and a.b are bases of the selector, not independent uses.
	switch p := parents[e].(type) {
	case *ast.ParenExpr:
		return chanUseAccounted(pass, parents, p)
	case *ast.SelectorExpr:
		if p.X == e {
			return true // base of a selector; the selector itself is classified
		}
		// e is the Sel ident of a selector: classify the whole selector.
		return chanUseAccounted(pass, parents, p)
	case *ast.SendStmt:
		return p.Chan == e
	case *ast.UnaryExpr:
		return p.Op == token.ARROW
	case *ast.RangeStmt:
		return p.X == e
	case *ast.CallExpr:
		if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
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
		return p.Op == token.EQL || p.Op == token.NEQ
	case *ast.ValueSpec, *ast.Field:
		return true // declaration site
	}
	return false
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

// checkCompletionWaits enforces the PR-5 sendq-hang rule: a select
// sending a value with a closed completion-channel field must wait on
// that field.
func checkCompletionWaits(pass *lint.Pass, c *facts) {
	for _, op := range c.ops {
		if op.kind != opSend || op.sel == nil || op.selDefault {
			continue
		}
		valObj := pass.Referent(op.at.(*ast.SendStmt).Value)
		if valObj == nil {
			continue
		}
		fields := completionFields(pass, valObj.Type(), c)
		if len(fields) == 0 {
			continue
		}
		if waitsOnAny(pass, op.sel, valObj, fields) {
			continue
		}
		queue := types.ExprString(op.ch)
		pass.Reportf(op.at.Pos(), "select sends %s onto %s without waiting on its completion channel %s.%s (closed by this package on teardown) — a sender blocked here sleeps through the completion and hangs; add `case <-%s.%s:`",
			valObj.Name(), queue, valObj.Name(), fields[0].Name(), valObj.Name(), fields[0].Name())
	}
}

// completionFields returns the chan-typed fields of the (pointer-to-)
// struct type t that some function of the package closes — the type's
// completion channels.
func completionFields(pass *lint.Pass, t types.Type, c *facts) []*types.Var {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if _, isChan := fld.Type().Underlying().(*types.Chan); isChan && c.kinds[fld]&opClose != 0 {
			out = append(out, fld)
		}
	}
	return out
}

// waitsOnAny reports whether the select has a receive case on val.F for
// any completion field F.
func waitsOnAny(pass *lint.Pass, sel *ast.SelectStmt, valObj types.Object, fields []*types.Var) bool {
	for _, s := range sel.Body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		var recvChan ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if ue, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && ue.Op.String() == "<-" {
				recvChan = ue.X
			}
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				if ue, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && ue.Op.String() == "<-" {
					recvChan = ue.X
				}
			}
		}
		if recvChan == nil {
			continue
		}
		se, ok := ast.Unparen(recvChan).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if pass.Referent(se.X) != valObj {
			continue
		}
		fldObj := pass.Referent(se)
		for _, fld := range fields {
			if fldObj == fld {
				return true
			}
		}
	}
	return false
}

// checkCounterparts enforces the package-private counterpart rule.
func checkCounterparts(pass *lint.Pass, c *facts) {
	reported := make(map[types.Object]bool)
	for _, op := range c.ops {
		// Select cases are exempt from the counterpart rule: the select
		// as a whole can complete through its other arms, and the
		// completion-wait rule above owns the missing-arm class.
		if !op.blocking() || op.obj == nil || reported[op.obj] || op.sel != nil {
			continue
		}
		if !packagePrivateChan(pass, op.obj) || c.opaque[op.obj] {
			continue
		}
		switch kinds := c.kinds[op.obj]; op.kind {
		case opSend:
			if kinds&(opRecv|opRange) == 0 {
				reported[op.obj] = true
				pass.Reportf(op.at.Pos(), "send on %s can never complete: no receive or range on it anywhere in this package, and it is invisible outside — the sender blocks forever", op.obj.Name())
			}
		case opRecv, opRange:
			if kinds&(opSend|opClose) == 0 {
				reported[op.obj] = true
				pass.Reportf(op.at.Pos(), "receive on %s can never complete: no send or close on it anywhere in this package, and it is invisible outside — the receiver blocks forever", op.obj.Name())
			}
		}
	}
}

// packagePrivateChan reports whether the channel object is invisible
// outside the package: an unexported field of a package-local struct
// whose type is itself unexported or whose field cannot be reached, or
// an unexported package-level variable. Locals are excluded (their
// lifetime is one call; the runtime leaktest owns those),
// as are exported names (another package may hold the counterpart).
func packagePrivateChan(pass *lint.Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Exported() || v.Pkg() != pass.Pkg {
		return false
	}
	if v.IsField() {
		return true
	}
	// Package-level var?
	return v.Parent() == pass.Pkg.Scope()
}

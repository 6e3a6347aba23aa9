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
	"go/types"

	"mits/internal/lint"
)

// Analyzer is the chanwait pass.
var Analyzer = &lint.Analyzer{
	Name: "chanwait",
	Doc:  "report blocking channel operations a teardown path cannot release (missing completion-channel arm, or no package-local counterpart)",
	Run:  run,
}

func run(pass *lint.Pass) error {
	conc := lint.NewConc(pass)
	if len(conc.Ops) == 0 {
		return nil
	}
	comp := conc.Completers()
	checkCompletionWaits(pass, conc, comp)
	checkCounterparts(pass, conc, comp)
	return nil
}

// checkCompletionWaits enforces the PR-5 sendq-hang rule: a select
// sending a value with a closed completion-channel field must wait on
// that field.
func checkCompletionWaits(pass *lint.Pass, conc *lint.Conc, comp lint.Completers) {
	for _, op := range conc.Ops {
		if op.Kind != lint.ChanSend || op.Select == nil || op.SelectDefault {
			continue
		}
		send := sendStmtOf(op)
		if send == nil {
			continue
		}
		valObj := pass.Referent(send.Value)
		if valObj == nil {
			continue
		}
		fields := completionFields(pass, valObj.Type(), comp)
		if len(fields) == 0 {
			continue
		}
		if waitsOnAny(pass, op.Select, valObj, fields) {
			continue
		}
		queue := types.ExprString(op.Chan)
		pass.Reportf(op.Pos, "select sends %s onto %s without waiting on its completion channel %s.%s (closed by this package on teardown) — a sender blocked here sleeps through the completion and hangs; add `case <-%s.%s:`",
			valObj.Name(), queue, valObj.Name(), fields[0].Name(), valObj.Name(), fields[0].Name())
	}
}

// sendStmtOf recovers the send statement of a select-case send op.
func sendStmtOf(op lint.ChanOp) *ast.SendStmt {
	for _, s := range op.Select.Body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		if send, ok := cc.Comm.(*ast.SendStmt); ok && send.Chan == op.Chan {
			return send
		}
	}
	return nil
}

// completionFields returns the chan-typed fields of the (pointer-to-)
// struct type t that some function of the package closes — the type's
// completion channels.
func completionFields(pass *lint.Pass, t types.Type, comp lint.Completers) []*types.Var {
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
		if _, isChan := fld.Type().Underlying().(*types.Chan); !isChan {
			continue
		}
		if len(comp.Closers[fld]) > 0 {
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
func checkCounterparts(pass *lint.Pass, conc *lint.Conc, comp lint.Completers) {
	reported := make(map[types.Object]bool)
	for _, op := range conc.Ops {
		if !op.Blocking() || op.Obj == nil || reported[op.Obj] {
			continue
		}
		// Select cases are exempt from the counterpart rule: the select
		// as a whole can complete through its other arms, and the
		// completion-wait rule above owns the missing-arm class.
		if op.Select != nil {
			continue
		}
		if !packagePrivateChan(pass, op.Obj) || conc.OpaqueChans[op.Obj] {
			continue
		}
		switch op.Kind {
		case lint.ChanSend:
			if len(comp.Receivers[op.Obj]) == 0 {
				reported[op.Obj] = true
				pass.Reportf(op.Pos, "send on %s can never complete: no receive or range on it anywhere in this package, and it is invisible outside — the sender blocks forever", op.Obj.Name())
			}
		case lint.ChanRecv, lint.ChanRange:
			if len(comp.Senders[op.Obj]) == 0 && len(comp.Closers[op.Obj]) == 0 {
				reported[op.Obj] = true
				pass.Reportf(op.Pos, "receive on %s can never complete: no send or close on it anywhere in this package, and it is invisible outside — the receiver blocks forever", op.Obj.Name())
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

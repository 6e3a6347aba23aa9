// Package deadlinecheck finds blocking calls that nothing bounds. The
// telelearning services promise interactive latency end to end; a
// blocking transport or store call with no reachable deadline turns a
// wedged peer into a wedged navigator, and the hang reproduces only
// when the network misbehaves — exactly when nobody is watching.
//
// Two rules:
//
//  1. net.Dial has no connect timeout: a SYN into a black hole blocks
//     for the OS default (minutes). Use net.DialTimeout or a
//     net.Dialer with Timeout.
//
//  2. A blocking call through an interface method (Call, Read, Write,
//     Accept, ...) must have a reachable deadline. The call is
//     exonerated when any of these carries one:
//     - the method takes a context.Context (the deadline rides along);
//     - the interface itself declares a Set*Deadline*/Set*Timeout*
//     method (net.Conn style — the caller can bound it);
//     - some concrete implementation in the interface's defining
//     package (or the current one) carries a deadline knob: a
//     time.Duration Timeout/Deadline field or a Set*Deadline*
//     method (transport.Client is bounded because TCPClient has a
//     per-call Timeout);
//     - the enclosing function is a method of a struct with its own
//     time.Duration Timeout/Deadline field (the type owns the knob,
//     as TCPServer.ConnTimeout bounds serveConn);
//     - the enclosing function body calls Set*Deadline*/Set*Timeout*
//     itself;
//     - the receiver is an interface-typed parameter of the enclosing
//     function: a helper handed an io.Reader cannot set deadlines on
//     it, so the bound is its caller's responsibility.
//
// Suppress a justified hang-by-design with
// `//mits:allow deadlinecheck <why>`.
package deadlinecheck

import (
	"go/ast"
	"go/types"
	"regexp"
	"slices"
	"strings"

	"mits/internal/lint"
)

// Analyzer is the deadlinecheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "deadlinecheck",
	Doc:  "check that blocking transport/store calls have a reachable deadline or timeout",
	Run:  run,
}

// blockingNames are interface method names treated as potentially
// indefinite blocking I/O. Handle is deliberately absent: it is
// in-process dispatch, bounded by whatever bounds its caller.
var blockingNames = map[string]bool{
	"Call": true, "CallInTracePooled": true,
	"Read": true, "Write": true,
	"Send": true, "Recv": true, "Receive": true,
	"Accept": true, "Wait": true,
	"Query": true, "Exec": true, "Fetch": true,
}

var knobRe = regexp.MustCompile(`^Set.*(Deadline|Timeout)`)

func run(pass *lint.Pass) error {
	for _, fd := range pass.FuncDecls() {
		checkFunc(pass, fd)
	}
	return nil
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	recvKnob := receiverHasKnob(pass, fd)
	bodyKnob := bodySetsDeadline(fd.Body)
	params := pass.Params(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Rule 1: unbounded connect.
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
			sig, _ := fn.Type().(*types.Signature)
			if fn.Pkg() != nil && fn.Pkg().Path() == "net" && fn.Name() == "Dial" &&
				sig != nil && sig.Recv() == nil {
				pass.Reportf(call.Pos(), "net.Dial has no connect timeout — a SYN into a black hole blocks for the OS default; use net.DialTimeout or a net.Dialer with Timeout")
				return true
			}
		}
		// Rule 2: deadline-free blocking interface call.
		s := pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.MethodVal || !types.IsInterface(s.Recv()) {
			return true
		}
		if !blockingNames[sel.Sel.Name] {
			return true
		}
		if recvKnob || bodyKnob {
			return true
		}
		fn, ok := s.Obj().(*types.Func)
		if !ok || hasContextParam(fn) {
			return true
		}
		iface, _ := s.Recv().Underlying().(*types.Interface)
		if iface == nil || interfaceDeclaresKnob(iface) {
			return true
		}
		// A helper handed an interface-typed parameter cannot set its
		// deadlines; its caller owns the bound. Field receivers (c.C.Call)
		// do not count: only values the function was handed directly.
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if base := pass.Referent(id); base != nil && types.IsInterface(base.Type()) && slices.Contains(params, base) {
				return true
			}
		}
		if implementationHasKnob(pass, s.Recv(), iface) {
			return true
		}
		pass.Reportf(call.Pos(), "blocking %s.%s has no reachable deadline: no context parameter, no deadline knob on the interface or any implementation in scope, and nothing here bounds it — add a Timeout field or set a deadline before the call",
			types.TypeString(s.Recv(), types.RelativeTo(pass.Pkg)), sel.Sel.Name)
		return true
	})
}

// receiverHasKnob reports whether fd is a method of a struct carrying
// its own time.Duration Timeout/Deadline field.
func receiverHasKnob(pass *lint.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return durationKnobField(t)
}

// durationKnobField reports whether t's underlying struct has a
// time.Duration field whose name mentions Timeout or Deadline.
func durationKnobField(t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		name := strings.ToLower(f.Name())
		if !strings.Contains(name, "timeout") && !strings.Contains(name, "deadline") {
			continue
		}
		if lint.IsNamed(f.Type(), "time", "Duration") {
			return true
		}
	}
	return false
}

// bodySetsDeadline reports whether body contains any
// Set*Deadline*/Set*Timeout* call.
func bodySetsDeadline(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && knobRe.MatchString(sel.Sel.Name) {
			found = true
		}
		return !found
	})
	return found
}

// hasContextParam reports whether fn takes a context.Context.
func hasContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if lint.IsNamed(sig.Params().At(i).Type(), "context", "Context") {
			return true
		}
	}
	return false
}

// interfaceDeclaresKnob reports whether the interface's own method set
// includes a deadline setter (net.Conn style).
func interfaceDeclaresKnob(iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if knobRe.MatchString(iface.Method(i).Name()) {
			return true
		}
	}
	return false
}

// implementationHasKnob scans the interface's defining package scope
// and the current package scope for a concrete named type that both
// implements the interface and carries a deadline knob (Duration
// Timeout/Deadline field or Set*Deadline* method).
func implementationHasKnob(pass *lint.Pass, recv types.Type, iface *types.Interface) bool {
	scopes := []*types.Scope{pass.Pkg.Scope()}
	if named, ok := recv.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			scopes = append(scopes, pkg.Scope())
		}
	}
	for _, scope := range scopes {
		for _, t := range lint.NamedTypes(scope) {
			if types.IsInterface(t) {
				continue
			}
			if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
				continue
			}
			if durationKnobField(t) || hasKnobMethod(t) {
				return true
			}
		}
	}
	return false
}

// hasKnobMethod reports whether *t's method set contains a deadline
// setter.
func hasKnobMethod(t types.Type) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if knobRe.MatchString(ms.At(i).Obj().Name()) {
			return true
		}
	}
	return false
}

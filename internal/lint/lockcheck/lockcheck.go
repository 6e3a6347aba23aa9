// Package lockcheck is the mutex-discipline analyzer: it flags code
// that touches the shared fields of a mutex-guarded struct without
// holding the lock.
//
// A struct is "guarded" when it has a field of type sync.Mutex or
// sync.RWMutex. A field of a guarded struct needs the lock unless it
// synchronizes itself (a sync or sync/atomic type) or is immutable —
// never reassigned, index-assigned, incremented or address-taken
// anywhere in the package, i.e. set only at construction. Two rules:
//
//   - receiver methods: within each method body of a guarded struct
//     (function literals are separate bodies, since they usually run
//     on other goroutines), an access through the receiver needs a
//     receiver.mu.Lock() / RLock() earlier in the same body (the
//     defer-Unlock idiom is therefore accepted).
//
//   - everybody else: a free function or another type's method
//     reaching into s.field needs s.mu.Lock() / RLock() earlier in the
//     body, unless the body builds the value itself (a composite
//     literal or package-local New* result: not shared yet).
//
// Functions whose name ends in "Locked" (the caller-holds-lock helper
// convention) are exempt, and //mits:nolock on the line or the
// declaration suppresses the rest. The check is a per-body
// source-order heuristic, not a full happens-before analysis: it
// accepts an access after an early Unlock and cannot see locks held by
// callers. The "Locked" suffix and //mits:nolock escape hatch cover
// exactly those cases — visibly.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mits/internal/lint"
)

// Analyzer is the lockcheck pass.
var Analyzer = &lint.Analyzer{
	Name: "lockcheck",
	Doc:  "report unguarded accesses to fields of mutex-protected structs",
	Run:  run,
}

// guardedStruct is one struct type with a mutex field.
type guardedStruct struct {
	named   *types.Named
	mutex   *types.Var          // the first sync.Mutex / sync.RWMutex field
	mutable map[*types.Var]bool // fields written outside construction
}

func run(pass *lint.Pass) error {
	owners := guardedFields(pass)
	if len(owners) == 0 {
		return nil
	}
	for _, fd := range pass.FuncDecls() {
		if strings.HasSuffix(fd.Name.Name, "Locked") {
			continue
		}
		recv, recvObj := receiver(pass, fd)
		if recvObj != nil {
			for _, body := range splitBodies(fd.Body) {
				checkReceiver(pass, fd, body, recv, recvObj, owners)
			}
		}
		checkNaked(pass, fd, recv, owners)
	}
	return nil
}

// guardedFields maps every field of the package's guarded structs to
// its struct, with mutability marked: a field written outside
// composite literals (assignment, through an index or nested selector,
// ++/--, address-taken) is mutable; fields set only at construction
// stay immutable and may be read without the lock.
func guardedFields(pass *lint.Pass) map[*types.Var]*guardedStruct {
	owners := make(map[*types.Var]*guardedStruct)
	for _, named := range lint.NamedTypes(pass.Pkg.Scope()) {
		mu := lint.MutexField(named)
		if mu == nil {
			continue
		}
		g := &guardedStruct{named: named, mutex: mu, mutable: make(map[*types.Var]bool)}
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			owners[st.Field(i)] = g
		}
	}
	if len(owners) == 0 {
		return nil
	}
	markExpr := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if fld := fieldOf(pass, sel); fld != nil && owners[fld] != nil {
					owners[fld].mutable[fld] = true
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markExpr(lhs)
				}
			case *ast.IncDecStmt:
				markExpr(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markExpr(n.X)
				}
			}
			return true
		})
	}
	return owners
}

// fieldOf resolves a field selector to its field, nil otherwise.
func fieldOf(pass *lint.Pass, sel *ast.SelectorExpr) *types.Var {
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	fld, _ := s.Obj().(*types.Var)
	return fld
}

// lockedField resolves sel to a field that needs its struct's lock —
// mutable and not self-synchronizing — and that struct.
func lockedField(pass *lint.Pass, sel *ast.SelectorExpr, owners map[*types.Var]*guardedStruct) (*types.Var, *guardedStruct) {
	fld := fieldOf(pass, sel)
	g := owners[fld]
	// A sync or sync/atomic field (Mutex, WaitGroup, atomic.Int64...)
	// synchronizes itself.
	if g == nil || lint.IsNamed(fld.Type(), "sync") || lint.IsNamed(fld.Type(), "sync/atomic") || !g.mutable[fld] {
		return nil, nil
	}
	return fld, g
}

// receiver returns fd's receiver type and the receiver variable (nil
// for functions and unnamed receivers).
func receiver(pass *lint.Pass, fd *ast.FuncDecl) (*types.Named, types.Object) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil, nil
	}
	field := fd.Recv.List[0]
	t := pass.TypesInfo.TypeOf(field.Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if len(field.Names) == 0 {
		return named, nil
	}
	return named, pass.TypesInfo.Defs[field.Names[0]]
}

// splitBodies returns the method body plus each nested function
// literal body as independent analysis units.
func splitBodies(body *ast.BlockStmt) []ast.Node {
	out := []ast.Node{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, fl.Body)
		}
		return true
	})
	return out
}

// inspectShallow walks root without descending into nested function
// literals (they are separate bodies).
func inspectShallow(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return fn(n)
	})
}

// lockPositions maps each base object to the position of the first
// base.<field>.Lock() / RLock() call walked from root.
func lockPositions(pass *lint.Pass, root ast.Node, walk func(ast.Node, func(ast.Node) bool)) map[types.Object]token.Pos {
	out := make(map[types.Object]token.Pos)
	walk(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || fieldOf(pass, inner) == nil {
			return true
		}
		if base := pass.Referent(inner.X); base != nil {
			if first, ok := out[base]; !ok || call.Pos() < first {
				out[base] = call.Pos()
			}
		}
		return true
	})
	return out
}

// checkReceiver applies the receiver-method rule to one body.
func checkReceiver(pass *lint.Pass, fd *ast.FuncDecl, body ast.Node, recv *types.Named, recvObj types.Object, owners map[*types.Var]*guardedStruct) {
	firstLock, locked := lockPositions(pass, body, inspectShallow)[recvObj]
	reported := make(map[*types.Var]bool)
	inspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[ident] != recvObj {
			return true
		}
		fld, g := lockedField(pass, sel, owners)
		if g == nil || g.named != recv || (locked && sel.Pos() > firstLock) || reported[fld] {
			return true
		}
		reported[fld] = true
		pass.Reportf(sel.Pos(), "%s.%s accesses %s.%s without holding the mutex (no Lock/RLock earlier in this body; suffix the helper with Locked or annotate //mits:nolock if the caller holds it)",
			g.named.Obj().Name(), fd.Name.Name, ident.Name, fld.Name())
		return true
	})
}

// checkNaked applies the everybody-else rule to fd: accesses to
// guarded fields through values whose type is not fd's receiver type
// (checkReceiver owns those).
func checkNaked(pass *lint.Pass, fd *ast.FuncDecl, recv *types.Named, owners map[*types.Var]*guardedStruct) {
	type key struct {
		base types.Object
		fld  *types.Var
	}
	reported := make(map[key]bool)
	constructed := pass.ConstructedTypes(fd.Body)
	locked := lockPositions(pass, fd.Body, ast.Inspect)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fld, g := lockedField(pass, sel, owners)
		if g == nil || g.named == recv || constructed[g.named] {
			return true
		}
		base := pass.Referent(sel.X)
		if base == nil {
			return true
		}
		if first, ok := locked[base]; ok && sel.Pos() > first {
			return true
		}
		if k := (key{base, fld}); !reported[k] {
			reported[k] = true
			pass.Reportf(sel.Pos(), "%s.%s is guarded by %s.%s elsewhere but accessed here without holding it (no %s.%s.Lock earlier in this body)",
				base.Name(), fld.Name(), g.named.Obj().Name(), g.mutex.Name(), base.Name(), g.mutex.Name())
		}
		return true
	})
}

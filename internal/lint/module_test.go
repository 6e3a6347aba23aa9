package lint

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

const (
	ipaPath = "mits/internal/lint/testdata/src/ipa"
	ipbPath = "mits/internal/lint/testdata/src/ipb"
)

// loadIPFixtures loads the two interprocedural fixture packages,
// returned in (ipa, ipb) order.
func loadIPFixtures(t *testing.T) (*Package, *Package) {
	t.Helper()
	pkgs, err := Load("testdata", "./src/ipa", "./src/ipb")
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	var ipa, ipb *Package
	for _, pkg := range pkgs {
		for _, te := range pkg.TypeErrors {
			t.Errorf("fixture %s has type error: %v", pkg.ImportPath, te)
		}
		switch pkg.ImportPath {
		case ipaPath:
			ipa = pkg
		case ipbPath:
			ipb = pkg
		}
	}
	if ipa == nil || ipb == nil {
		t.Fatalf("fixture packages missing (ipa=%v ipb=%v)", ipa != nil, ipb != nil)
	}
	return ipa, ipb
}

// TestModuleResolvesInterfaceCalls is the call-graph contract: a
// function's summary records its acquisitions and the locks held at
// each call, an interface call site resolves to every in-module
// implementation, in both the defining package and a consuming one,
// and the resulting lock edges cross the package boundary.
func TestModuleResolvesInterfaceCalls(t *testing.T) {
	ipa, ipb := loadIPFixtures(t)
	mod := NewModule([]*Package{ipa, ipb})
	typ := func(pkg *Package, name string) *types.Named {
		return pkg.Types.Scope().Lookup(name).Type().(*types.Named)
	}
	method := func(named *types.Named, name string) *types.Func {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
		return obj.(*types.Func)
	}
	lockOf := func(named *types.Named) Lock { return Lock{Owner: named.Obj(), Var: MutexField(named)} }

	hub := typ(ipa, "Hub")
	broadcastFn := method(hub, "Broadcast")
	broadcast := mod.funcs[broadcastFn]
	if broadcast == nil || broadcast.name != ipaPath+".(Hub).Broadcast" {
		t.Fatalf("module lacks (Hub).Broadcast: %+v", broadcast)
	}
	hubMu := lockOf(hub)
	if hubMu.String() != ipaPath+".Hub.mu" {
		t.Errorf("Hub's lock renders as %s", hubMu)
	}
	if len(broadcast.acquires) != 1 || broadcast.acquires[0].lock != hubMu {
		t.Errorf("Broadcast acquires = %+v, want exactly %s", broadcast.acquires, hubMu)
	}
	put := ifaceMethod{typ(ipa, "Sink").Obj(), "Put"}
	found := false
	for _, cs := range broadcast.calls {
		if cs.iface != put {
			continue
		}
		found = true
		if len(cs.held) != 1 || cs.held[0] != hubMu {
			t.Errorf("Sink.Put dispatch held = %v, want [%s]", cs.held, hubMu)
		}
	}
	if !found {
		t.Errorf("Broadcast has no call site through Sink.Put: %+v", broadcast.calls)
	}

	got := mod.targets(&callSite{iface: put})
	want := []*types.Func{method(typ(ipa, "Local"), "Put"), method(typ(ipb, "Remote"), "Put")}
	if !slices.Equal(got, want) {
		t.Errorf("targets(Sink.Put) = %v, want %v", got, want)
	}

	// The resolved dispatch must produce ordering edges from Hub.mu to
	// each implementation's lock — one of them in a package Hub's
	// summary has never seen.
	edgeTo := map[Lock]bool{}
	for _, e := range mod.LockEdges() {
		if e.From == hubMu {
			edgeTo[e.To] = true
		}
	}
	for _, to := range []Lock{lockOf(typ(ipa, "Local")), lockOf(typ(ipb, "Remote"))} {
		if !edgeTo[to] {
			t.Errorf("missing lock edge Hub.mu → %s (edges: %v)", to, mod.LockEdges())
		}
	}

	// Mirror's goroutine body is a synthetic function of its own; the
	// launch must not smuggle Broadcast under Mirror's (empty) held
	// set, and the body must carry the Broadcast call.
	var goBody *funcSummary
	for _, fs := range mod.all {
		if fs.name == ipbPath+".Mirror#go1" {
			goBody = fs
		}
	}
	if goBody == nil {
		t.Fatal("no synthetic summary for Mirror's goroutine body")
	}
	foundBroadcast := false
	for _, cs := range goBody.calls {
		if cs.callee == broadcastFn {
			foundBroadcast = true
			if len(cs.held) != 0 {
				t.Errorf("goroutine body calls Broadcast with held = %v, want none", cs.held)
			}
		}
	}
	if !foundBroadcast {
		t.Errorf("Mirror#go1 does not call Broadcast: %+v", goBody.calls)
	}
}

// TestLockEdgeWitnessKeepsFileOrder: every init body of a package is
// summarized under the one name pkg.init, and the lock graph keeps the
// first witness it meets per edge. So that witness must be the first
// init in file order, however many inits tie on the name.
func TestLockEdgeWitnessKeepsFileOrder(t *testing.T) {
	dir := t.TempDir()
	src := "package inits\n\nimport \"sync\"\n\nvar a, b sync.Mutex\n"
	// Functions named in reverse between the inits make the sort move
	// them; an unstable sort then reorders the inits among themselves.
	for i := 0; i < 40; i++ {
		src += "\nfunc init() {\n\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}\n"
		src += fmt.Sprintf("\nfunc f%02d() {}\n", 40-i)
	}
	for name, body := range map[string]string{"go.mod": "module inits\n\ngo 1.22\n", "inits.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, ".")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var roots []*Package
	for _, pkg := range pkgs {
		if pkg.Root {
			roots = append(roots, pkg)
		}
	}
	edges := NewModule(roots).LockEdges()
	if len(edges) != 1 {
		t.Fatalf("edges = %v, want exactly a → b", edges)
	}
	// The first init's b.Lock() is on line 9 of inits.go.
	if pos := roots[0].Fset.Position(edges[0].Witness); pos.Line != 9 {
		t.Errorf("a → b witnessed at %v, want the first init (line 9)", pos)
	}
}

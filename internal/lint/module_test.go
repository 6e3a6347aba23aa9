package lint

import (
	"reflect"
	"sort"
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

	broadcast := mod.Func(FuncID(ipaPath + ".(Hub).Broadcast"))
	if broadcast == nil {
		t.Fatal("module lacks (Hub).Broadcast")
	}
	hubMu := LockID(ipaPath + ".Hub.mu")
	if len(broadcast.Acquires) != 1 || broadcast.Acquires[0].Lock != hubMu {
		t.Errorf("Broadcast acquires = %+v, want exactly %s", broadcast.Acquires, hubMu)
	}
	putID := IfaceMethodID(ipaPath + ".Sink.Put")
	found := false
	for _, cs := range broadcast.Calls {
		if cs.Iface != putID {
			continue
		}
		found = true
		if len(cs.Held) != 1 || cs.Held[0] != hubMu {
			t.Errorf("Sink.Put dispatch held = %v, want [%s]", cs.Held, hubMu)
		}
	}
	if !found {
		t.Errorf("Broadcast has no call site through %s: %+v", putID, broadcast.Calls)
	}

	got := mod.Targets(&CallSite{Iface: putID})
	want := []FuncID{
		FuncID(ipaPath + ".(Local).Put"),
		FuncID(ipbPath + ".(Remote).Put"),
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Targets(Sink.Put) = %v, want %v", got, want)
	}

	// The resolved dispatch must produce ordering edges from Hub.mu to
	// each implementation's lock — one of them in a package Hub's
	// summary has never seen.
	edgeTo := map[LockID]bool{}
	for _, e := range mod.LockEdges() {
		if e.From == hubMu {
			edgeTo[e.To] = true
		}
	}
	for _, to := range []LockID{LockID(ipaPath + ".Local.mu"), LockID(ipbPath + ".Remote.mu")} {
		if !edgeTo[to] {
			t.Errorf("missing lock edge Hub.mu → %s (edges: %v)", to, mod.LockEdges())
		}
	}

	// Mirror's goroutine body is a synthetic function of its own; the
	// launch must not smuggle Broadcast under Mirror's (empty) held
	// set, and the body must carry the Broadcast call.
	goBody := mod.Func(FuncID(ipbPath + ".Mirror#go1"))
	if goBody == nil {
		t.Fatal("no synthetic summary for Mirror's goroutine body")
	}
	foundBroadcast := false
	for _, cs := range goBody.Calls {
		if cs.Callee == FuncID(ipaPath+".(Hub).Broadcast") {
			foundBroadcast = true
			if len(cs.Held) != 0 {
				t.Errorf("goroutine body calls Broadcast with held = %v, want none", cs.Held)
			}
		}
	}
	if !foundBroadcast {
		t.Errorf("Mirror#go1 does not call Broadcast: %+v", goBody.Calls)
	}
}

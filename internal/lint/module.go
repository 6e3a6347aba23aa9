// Module: the whole-module stitching of per-package summaries into a
// cross-package call graph, with interface calls resolved to every
// in-module implementation, and the lock-ordering graph (with cycle
// detection) lockorder reads from it.
//
// A Module is built once per mitslint invocation over all root
// packages and shared read-only across analyzer runs; the lock graph
// is computed lazily under sync.Once so package-local runs that never
// ask for it pay nothing.
package lint

import (
	"fmt"
	"go/types"
	"path/filepath"
	"sort"
	"sync"
)

// Module is the whole-module view over a set of loaded packages.
type Module struct {
	funcs map[FuncID]*FuncSummary
	// impls maps each named in-module interface method to the FuncIDs
	// of every in-module concrete method implementing it.
	impls map[IfaceMethodID][]FuncID

	lockOnce   sync.Once
	lockEdges  []LockEdge
	lockCycles []LockCycle
}

// NewModule summarizes pkgs and stitches the module view. Standard
// packages are skipped; pass every root package of the analysis for
// full cross-package vision.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		funcs: make(map[FuncID]*FuncSummary),
		impls: make(map[IfaceMethodID][]FuncID),
	}
	var analyzed []*Package
	for _, pkg := range pkgs {
		if pkg.Standard || pkg.Types == nil {
			continue
		}
		analyzed = append(analyzed, pkg)
		for _, fs := range summarize(pkg) {
			m.funcs[fs.ID] = fs
		}
	}
	m.resolveInterfaces(analyzed)
	return m
}

// Func returns the summary for id, nil when the function is outside
// the module (or has no body).
func (m *Module) Func(id FuncID) *FuncSummary { return m.funcs[id] }

// resolveInterfaces indexes every named interface defined in an
// analyzed package against every named concrete type in any analyzed
// package, mapping each interface method to the implementing methods.
func (m *Module) resolveInterfaces(pkgs []*Package) {
	type namedIface struct {
		id    string // pkgpath.Name
		iface *types.Interface
	}
	var ifaces []namedIface
	var concrete []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, namedIface{
					id:    pkg.Types.Path() + "." + name,
					iface: iface,
				})
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	for _, ni := range ifaces {
		for _, named := range concrete {
			if !types.Implements(named, ni.iface) && !types.Implements(types.NewPointer(named), ni.iface) {
				continue
			}
			for i := 0; i < ni.iface.NumMethods(); i++ {
				mName := ni.iface.Method(i).Name()
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), mName)
				impl, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				id := IfaceMethodID(ni.id + "." + mName)
				target := funcIDOf(impl)
				if m.funcs[target] == nil {
					continue // method promoted from outside the module
				}
				m.impls[id] = append(m.impls[id], target)
			}
		}
	}
	for id := range m.impls {
		list := m.impls[id]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	}
}

// Targets resolves a call site to the in-module functions it can
// reach: the static callee when summarized, else every in-module
// implementation of the interface method.
func (m *Module) Targets(cs *CallSite) []FuncID {
	if cs.Callee != "" {
		if m.funcs[cs.Callee] != nil {
			return []FuncID{cs.Callee}
		}
		return nil
	}
	if cs.Iface != "" {
		return m.impls[cs.Iface]
	}
	return nil
}

// ---- lock-ordering graph ----

// LockEdge is one ordering fact: To was (reachably) acquired while
// From was held. Witness pins where, Via names the call chain when the
// acquisition is in a callee.
type LockEdge struct {
	From    LockID
	To      LockID
	Witness string // serialized position of the acquisition or initiating call
	Via     string // "f → g → h" call chain, "" for a same-body acquisition
}

// LockCycle is one potential deadlock: a cycle in the lock-ordering
// graph, canonicalized to start at the smallest LockID.
type LockCycle struct {
	Locks []LockID   // cycle order; Locks[0] is the smallest
	Edges []LockEdge // Edges[i] is Locks[i] → Locks[(i+1)%len]
}

// acqWitness is where (and through which chain) a function's
// transitive execution acquires a lock.
type acqWitness struct {
	pos string
	via string
}

// LockEdges builds (once) and returns the module-wide lock-ordering
// edges, deterministically ordered.
func (m *Module) LockEdges() []LockEdge {
	m.lockOnce.Do(m.buildLockGraph)
	return m.lockEdges
}

// LockCycles builds (once) the lock graph and returns its cycles.
func (m *Module) LockCycles() []LockCycle {
	m.lockOnce.Do(m.buildLockGraph)
	return m.lockCycles
}

func (m *Module) buildLockGraph() {
	ids := make([]FuncID, 0, len(m.funcs))
	for id := range m.funcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// transitive acquisitions per function, memoized. DFS with an
	// in-progress marker: recursion (direct or mutual) contributes the
	// already-discovered part, which under-approximates fixpoints but
	// never fabricates an acquisition.
	memo := make(map[FuncID]map[LockID]acqWitness)
	inProgress := make(map[FuncID]bool)
	var transitive func(id FuncID) map[LockID]acqWitness
	transitive = func(id FuncID) map[LockID]acqWitness {
		if got, ok := memo[id]; ok {
			return got
		}
		if inProgress[id] {
			return nil
		}
		inProgress[id] = true
		defer delete(inProgress, id)
		fs := m.funcs[id]
		if fs == nil {
			return nil
		}
		out := make(map[LockID]acqWitness)
		for _, acq := range fs.Acquires {
			if _, ok := out[acq.Lock]; !ok {
				out[acq.Lock] = acqWitness{pos: acq.Pos}
			}
		}
		for i := range fs.Calls {
			cs := &fs.Calls[i]
			if cs.Async {
				continue // a spawned goroutine's locks are its own context
			}
			for _, target := range m.Targets(cs) {
				for lock, w := range transitive(target) {
					if _, ok := out[lock]; ok {
						continue
					}
					via := string(target)
					if w.via != "" {
						via = via + " → " + w.via
					}
					out[lock] = acqWitness{pos: w.pos, via: via}
				}
			}
		}
		memo[id] = out
		return out
	}

	type edgeKey struct{ from, to LockID }
	seen := make(map[edgeKey]bool)
	addEdge := func(from, to LockID, witness, via string) {
		k := edgeKey{from, to}
		if seen[k] {
			return
		}
		seen[k] = true
		m.lockEdges = append(m.lockEdges, LockEdge{From: from, To: to, Witness: witness, Via: via})
	}
	for _, id := range ids {
		fs := m.funcs[id]
		for _, acq := range fs.Acquires {
			for _, held := range acq.Held {
				addEdge(held, acq.Lock, acq.Pos, "")
			}
		}
		for i := range fs.Calls {
			cs := &fs.Calls[i]
			if cs.Async || cs.Deferred || len(cs.Held) == 0 {
				continue
			}
			for _, target := range m.Targets(cs) {
				acqs := transitive(target)
				locks := make([]LockID, 0, len(acqs))
				for lock := range acqs {
					locks = append(locks, lock)
				}
				sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
				for _, lock := range locks {
					w := acqs[lock]
					via := string(target)
					if w.via != "" {
						via = via + " → " + w.via
					}
					// Base filename only: the chain appears inside diagnostic
					// messages, and an absolute path there would make the
					// output machine-specific.
					for _, held := range cs.Held {
						addEdge(held, lock, cs.Pos, via+" acquires at "+filepath.Base(w.pos))
					}
				}
			}
		}
	}
	m.lockCycles = findCycles(m.lockEdges)
}

// findCycles locates elementary cycles via SCC decomposition: inside
// each strongly connected component of ≥2 locks, one representative
// cycle is traced from the smallest lock; self-edges are their own
// cycles.
func findCycles(edges []LockEdge) []LockCycle {
	adj := make(map[LockID][]LockEdge)
	var nodes []LockID
	nodeSeen := make(map[LockID]bool)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e)
		for _, n := range []LockID{e.From, e.To} {
			if !nodeSeen[n] {
				nodeSeen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	// Tarjan SCC, iterative enough for our graph sizes via recursion.
	index := make(map[LockID]int)
	low := make(map[LockID]int)
	onStack := make(map[LockID]bool)
	var stack []LockID
	counter := 0
	var sccs [][]LockID
	var strongconnect func(v LockID)
	strongconnect = func(v LockID) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			w := e.To
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []LockID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if _, ok := index[n]; !ok {
			strongconnect(n)
		}
	}

	edgeFor := func(from, to LockID) (LockEdge, bool) {
		for _, e := range adj[from] {
			if e.To == to {
				return e, true
			}
		}
		return LockEdge{}, false
	}

	var cycles []LockCycle
	for _, scc := range sccs {
		sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
		if len(scc) == 1 {
			// Self-loop: the lock is (reachably) reacquired while held —
			// an immediate deadlock for Go's non-reentrant mutexes.
			if e, ok := edgeFor(scc[0], scc[0]); ok {
				cycles = append(cycles, LockCycle{Locks: []LockID{scc[0]}, Edges: []LockEdge{e}})
			}
			continue
		}
		// Trace one representative cycle from the smallest lock: BFS
		// within the SCC back to the start.
		inSCC := make(map[LockID]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		start := scc[0]
		path := traceCycle(start, inSCC, adj)
		if path == nil {
			continue
		}
		cyc := LockCycle{Locks: path}
		ok := true
		for i := range path {
			e, found := edgeFor(path[i], path[(i+1)%len(path)])
			if !found {
				ok = false
				break
			}
			cyc.Edges = append(cyc.Edges, e)
		}
		if ok {
			cycles = append(cycles, cyc)
		}
	}
	sort.Slice(cycles, func(i, j int) bool {
		return fmt.Sprint(cycles[i].Locks) < fmt.Sprint(cycles[j].Locks)
	})
	return cycles
}

// traceCycle finds a shortest cycle from start back to start staying
// inside the SCC, returning the lock sequence (start first).
func traceCycle(start LockID, inSCC map[LockID]bool, adj map[LockID][]LockEdge) []LockID {
	type step struct {
		node LockID
		prev int
	}
	queue := []step{{node: start, prev: -1}}
	visited := map[LockID]bool{}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		next := adj[cur.node]
		// Deterministic expansion order.
		sorted := append([]LockEdge(nil), next...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].To < sorted[j].To })
		for _, e := range sorted {
			if !inSCC[e.To] {
				continue
			}
			if e.To == start && cur.node != start {
				// Reconstruct.
				var rev []LockID
				for i := qi; i != -1; i = queue[i].prev {
					rev = append(rev, queue[i].node)
				}
				out := make([]LockID, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			if visited[e.To] || e.To == start {
				continue
			}
			visited[e.To] = true
			queue = append(queue, step{node: e.To, prev: qi})
		}
	}
	return nil
}

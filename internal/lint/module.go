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
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// Module is the whole-module view over a set of loaded packages.
type Module struct {
	fset  *token.FileSet
	funcs map[*types.Func]*funcSummary
	all   []*funcSummary // every summary, goroutine bodies included, by name then file order
	// impls maps each named in-module interface method to every
	// in-module concrete method implementing it, by name.
	impls map[ifaceMethod][]*types.Func

	lockOnce   sync.Once
	lockEdges  []LockEdge
	lockCycles []LockCycle
}

// NewModule summarizes pkgs and stitches the module view. Standard
// packages are skipped; pass every root package of the analysis for
// full cross-package vision. The packages share one FileSet, as Load
// returns them.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		funcs: make(map[*types.Func]*funcSummary),
		impls: make(map[ifaceMethod][]*types.Func),
	}
	var analyzed []*Package
	for _, pkg := range pkgs {
		if pkg.Standard || pkg.Types == nil {
			continue
		}
		m.fset = pkg.Fset
		analyzed = append(analyzed, pkg)
		for _, fd := range funcDecls(pkg.Files) {
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sums := summarize(pkg.Info, fn, fd)
			m.funcs[fn] = sums[0]
			m.all = append(m.all, sums...)
		}
	}
	// Stable: every init body is named pkg.init, and the lock graph keeps
	// the first witness per edge, so ties keep file order.
	sort.SliceStable(m.all, func(i, j int) bool { return m.all[i].name < m.all[j].name })
	m.resolveInterfaces(analyzed)
	return m
}

// resolveInterfaces indexes every named interface defined in an
// analyzed package against every named concrete type in any analyzed
// package, mapping each interface method to the implementing methods.
func (m *Module) resolveInterfaces(pkgs []*Package) {
	var ifaces, concrete []*types.Named
	for _, pkg := range pkgs {
		for _, named := range NamedTypes(pkg.Types.Scope()) {
			if types.IsInterface(named) {
				ifaces = append(ifaces, named)
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	for _, ni := range ifaces {
		iface := ni.Underlying().(*types.Interface)
		for _, named := range concrete {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				mName := iface.Method(i).Name()
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), mName)
				impl, ok := obj.(*types.Func)
				if !ok || m.funcs[impl.Origin()] == nil {
					continue // method promoted from outside the module
				}
				key := ifaceMethod{ni.Obj(), mName}
				m.impls[key] = append(m.impls[key], impl.Origin())
			}
		}
	}
	for _, list := range m.impls {
		sort.Slice(list, func(i, j int) bool { return m.funcs[list[i]].name < m.funcs[list[j]].name })
	}
}

// targets resolves a call site to the in-module functions it can
// reach: the static callee when summarized, else every in-module
// implementation of the interface method.
func (m *Module) targets(cs *callSite) []*types.Func {
	if cs.callee != nil {
		if m.funcs[cs.callee] != nil {
			return []*types.Func{cs.callee}
		}
		return nil
	}
	return m.impls[cs.iface]
}

// ---- lock-ordering graph ----

// LockEdge is one ordering fact: To was (reachably) acquired while
// From was held. Witness pins where, Via names the call chain when the
// acquisition is in a callee.
type LockEdge struct {
	From, To Lock
	Witness  token.Pos // the acquisition or the initiating call
	Via      string    // "f → g → h acquires at file:line:col", "" for a same-body acquisition
}

// LockCycle is one potential deadlock: a cycle in the lock-ordering
// graph, starting at its smallest lock.
type LockCycle struct {
	Locks []Lock     // cycle order; Locks[0] is the smallest
	Edges []LockEdge // Edges[i] is Locks[i] → Locks[(i+1)%len]
}

// acqWitness is where (and through which chain) a function's
// transitive execution acquires a lock.
type acqWitness struct {
	pos token.Pos
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
	// transitive acquisitions per function, memoized. DFS with an
	// in-progress marker: recursion (direct or mutual) contributes the
	// already-discovered part, which under-approximates fixpoints but
	// never fabricates an acquisition.
	memo := make(map[*types.Func]map[Lock]acqWitness)
	inProgress := make(map[*types.Func]bool)
	// chain prefixes a callee's witness chain with the callee's name.
	chain := func(target *types.Func, w acqWitness) string {
		if w.via != "" {
			return m.funcs[target].name + " → " + w.via
		}
		return m.funcs[target].name
	}
	var transitive func(fn *types.Func) map[Lock]acqWitness
	transitive = func(fn *types.Func) map[Lock]acqWitness {
		if got, ok := memo[fn]; ok {
			return got
		}
		if inProgress[fn] {
			return nil
		}
		inProgress[fn] = true
		defer delete(inProgress, fn)
		out := make(map[Lock]acqWitness)
		for _, acq := range m.funcs[fn].acquires {
			if _, ok := out[acq.lock]; !ok {
				out[acq.lock] = acqWitness{pos: acq.pos}
			}
		}
		for i := range m.funcs[fn].calls {
			cs := &m.funcs[fn].calls[i]
			if cs.async {
				continue // a spawned goroutine's locks are its own context
			}
			for _, target := range m.targets(cs) {
				for lock, w := range transitive(target) {
					if _, ok := out[lock]; !ok {
						out[lock] = acqWitness{pos: w.pos, via: chain(target, w)}
					}
				}
			}
		}
		memo[fn] = out
		return out
	}

	type edgeKey struct{ from, to Lock }
	seen := make(map[edgeKey]bool)
	addEdge := func(from, to Lock, witness token.Pos, via string) {
		if k := (edgeKey{from, to}); !seen[k] {
			seen[k] = true
			m.lockEdges = append(m.lockEdges, LockEdge{From: from, To: to, Witness: witness, Via: via})
		}
	}
	for _, fs := range m.all {
		for _, acq := range fs.acquires {
			for _, held := range acq.held {
				addEdge(held, acq.lock, acq.pos, "")
			}
		}
		for i := range fs.calls {
			cs := &fs.calls[i]
			if cs.async || cs.deferred || len(cs.held) == 0 {
				continue
			}
			for _, target := range m.targets(cs) {
				acqs := transitive(target)
				locks := make([]Lock, 0, len(acqs))
				for lock := range acqs {
					locks = append(locks, lock)
				}
				sortLocks(locks)
				for _, lock := range locks {
					// Base filename only: the chain appears inside diagnostic
					// messages, and an absolute path there would make the
					// output machine-specific.
					via := chain(target, acqs[lock]) + " acquires at " + filepath.Base(m.fset.Position(acqs[lock].pos).String())
					for _, held := range cs.held {
						addEdge(held, lock, cs.pos, via)
					}
				}
			}
		}
	}
	m.lockCycles = findCycles(m.lockEdges)
}

func sortLocks(locks []Lock) {
	sort.Slice(locks, func(i, j int) bool { return locks[i].String() < locks[j].String() })
}

// findCycles returns one representative cycle per strongly connected
// set of locks, in one search: from each lock in sorted order a
// breadth-first search, neighbours expanded in sorted order, finds the
// shortest way back. A lock reports it only when it is the smallest
// lock of its set, the set of locks it reaches that reach it back; a
// lock alone in its set reports its self-edge instead, if any — Go
// mutexes are not reentrant. Cycles sort by lock list.
func findCycles(edges []LockEdge) []LockCycle {
	adj := make(map[Lock][]LockEdge)
	var locks []Lock
	for _, e := range edges {
		for _, l := range []Lock{e.From, e.To} {
			if _, ok := adj[l]; !ok {
				adj[l] = nil
				locks = append(locks, l)
			}
		}
		adj[e.From] = append(adj[e.From], e)
	}
	sortLocks(locks)
	for _, out := range adj {
		sort.SliceStable(out, func(i, j int) bool { return out[i].To.String() < out[j].To.String() })
	}

	reach := make(map[Lock]map[Lock]bool)
	var cycles []LockCycle
	for i, start := range locks {
		type step struct {
			edge LockEdge // the edge that reached this lock
			prev int
		}
		queue := []step{{edge: LockEdge{To: start}, prev: -1}}
		seen := map[Lock]bool{start: true}
		var back, self *LockEdge
		last := -1 // queue index the first way back leaves from
		for qi := 0; qi < len(queue); qi++ {
			for _, e := range adj[queue[qi].edge.To] {
				switch {
				case e.To == start && qi == 0:
					self = &e
				case e.To == start && back == nil:
					back, last = &e, qi
				case !seen[e.To]:
					seen[e.To] = true
					queue = append(queue, step{edge: e, prev: qi})
				}
			}
		}
		reach[start] = seen
		if slices.ContainsFunc(locks[:i], func(l Lock) bool { return seen[l] && reach[l][start] }) {
			continue // not the smallest lock of its set
		}
		switch {
		case back != nil:
			cyc := LockCycle{Edges: []LockEdge{*back}}
			for qi := last; qi > 0; qi = queue[qi].prev {
				cyc.Edges = append(cyc.Edges, queue[qi].edge)
			}
			slices.Reverse(cyc.Edges)
			for _, e := range cyc.Edges {
				cyc.Locks = append(cyc.Locks, e.From)
			}
			cycles = append(cycles, cyc)
		case self != nil:
			cycles = append(cycles, LockCycle{Locks: []Lock{start}, Edges: []LockEdge{*self}})
		}
	}
	sort.Slice(cycles, func(i, j int) bool { return fmt.Sprint(cycles[i].Locks) < fmt.Sprint(cycles[j].Locks) })
	return cycles
}

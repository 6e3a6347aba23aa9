// Package lockorder finds potential deadlocks as cycles in the
// module-wide lock-ordering graph.
//
// The interprocedural layer (lint.Module) summarizes every function in
// every analyzed package: which mutexes it acquires, which locks are
// lexically held at each acquisition and call site, and which
// functions each call can reach — including calls through in-module
// interfaces, resolved to every implementation in the module. From
// those facts the module builds a directed graph over lock identities
// (pkg.Type.field / pkg.var): an edge A → B means some execution path
// acquires B while holding A, possibly many calls and packages away
// from where A was taken. A cycle in that graph is a lock-order
// inversion: two goroutines entering the cycle from different edges
// can each hold the lock the other needs. A self-edge is worse — Go
// mutexes are non-reentrant, so reacquiring a held lock deadlocks a
// single goroutine with no adversary required.
//
// Each cycle is reported exactly once, anchored at the witness
// position of the edge leaving the cycle's smallest lock, in the
// package that owns that position. The message spells the full cycle
// and each edge's call chain so the fix (pick one order, release
// before calling, or split the lock) is readable from the diagnostic.
//
// The analysis shares the summaries' lexical trade: held sets are
// source-order facts, not a happens-before proof. TryLock acquisitions
// count (a successful TryLock still orders), goroutine launches do not
// inherit the launcher's held set, and locks on different instances of
// one type collapse to one identity — the same approximation lockdep
// makes, and the same escape hatch applies: a cycle that is provably
// instance-disjoint gets an //mits:allow lockorder with the proof.
package lockorder

import (
	"fmt"
	"path/filepath"
	"strings"

	"mits/internal/lint"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc:  "report cycles in the module-wide lock-ordering graph as potential deadlocks",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, cyc := range pass.Module().LockCycles() {
		// Report each cycle once module-wide: in the package whose files
		// hold the anchoring witness.
		anchor := cyc.Edges[0].Witness
		for _, f := range pass.Files {
			if f.FileStart <= anchor && anchor <= f.FileEnd {
				pass.Reportf(anchor, "%s", message(pass, cyc))
			}
		}
	}
	return nil
}

// message renders one cycle. Self-loop:
//
//	potential deadlock: a.R.mu reacquired while already held (via helper → ...)
//
// Cycle:
//
//	potential deadlock: lock-order cycle a.S.mu → a.T.mu → a.S.mu; a.T.mu
//	taken at a.go:12:2 while a.S.mu held; a.S.mu taken at ... while ...
func message(pass *lint.Pass, cyc lint.LockCycle) string {
	var b strings.Builder
	via := func(e lint.LockEdge) {
		if e.Via != "" {
			fmt.Fprintf(&b, " (via %s)", e.Via)
		}
	}
	if len(cyc.Locks) == 1 {
		fmt.Fprintf(&b, "potential deadlock: %s reacquired while already held", cyc.Locks[0])
		via(cyc.Edges[0])
		return b.String()
	}
	b.WriteString("potential deadlock: lock-order cycle ")
	for _, l := range cyc.Locks {
		fmt.Fprintf(&b, "%s → ", l)
	}
	b.WriteString(cyc.Locks[0].String())
	for _, e := range cyc.Edges {
		// Base filename only: the full path is in the diagnostic's own
		// position; repeating directories for every edge drowns the cycle.
		fmt.Fprintf(&b, "; %s taken at %s while %s held", e.To, filepath.Base(pass.Fset.Position(e.Witness).String()), e.From)
		via(e)
	}
	return b.String()
}

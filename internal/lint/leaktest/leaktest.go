// Package leaktest is the project's goroutine-leak gate: it fails a
// test that exits with goroutines it started still running.
//
// Call Check(t) at the top of any test that starts goroutines
// (directly or through servers it constructs). Check snapshots the
// live goroutines and registers a cleanup that re-snapshots after the
// test, retrying briefly so goroutines that are mid-exit are not
// misreported, and fails with the full stack of anything left over.
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long the cleanup waits for goroutines to finish
// exiting before declaring them leaked.
const grace = 2 * time.Second

// Check registers a leak check that runs when the test ends.
func Check(t testing.TB) {
	t.Helper()
	before := stacks()
	t.Cleanup(func() {
		deadline := time.Now().Add(grace)
		var leaked []string
		for {
			leaked = leaked[:0]
			for id, g := range stacks() {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, g)
				}
			}
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
			// Goroutine exit is the one thing with no channel to wait
			// on: polling the runtime snapshot is the mechanism here,
			// not a synchronization shortcut.
			//mits:allow sleepless
			time.Sleep(10 * time.Millisecond)
		}
		for _, g := range leaked {
			t.Errorf("leaked goroutine:\n%s", g)
		}
	})
}

// stacks snapshots every interesting live goroutine, keyed by the
// goroutine id from its header line.
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, ok := goroutineID(g)
		if !ok || uninteresting(g) {
			continue
		}
		out[id] = g
	}
	return out
}

// goroutineID extracts the numeric id from a "goroutine 12 [running]:"
// header.
func goroutineID(g string) (string, bool) {
	const prefix = "goroutine "
	if !strings.HasPrefix(g, prefix) {
		return "", false
	}
	rest := g[len(prefix):]
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		return "", false
	}
	return rest[:sp], true
}

// uninteresting filters goroutines the test harness and runtime own:
// they come and go on their own schedule and are never a test's leak.
// A goroutine created but not yet scheduled shows a runtime.goexit
// frame; it is not filtered, or it would be missing from the snapshot
// it belongs to and reported as new once it runs.
func uninteresting(g string) bool {
	for _, frame := range []string{
		"runtime.Stack(", // the snapshotting goroutine itself
		"testing.Main(",
		"testing.tRunner(",
		"testing.(*M).",
		"testing.runFuzzing(",
		"testing.runFuzzTests(",
		"created by runtime",
		"signal.signal_recv",
	} {
		if strings.Contains(g, frame) {
			return true
		}
	}
	return false
}

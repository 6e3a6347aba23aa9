// Package a exercises sleepless.
package a

import (
	"sync"
	"time"
)

// Busy sleeps for "synchronization": flagged.
func Busy() {
	time.Sleep(10 * time.Millisecond) // want `time.Sleep in non-test code`
}

// Aliased import paths still resolve to time.Sleep.
func Aliased() {
	s := time.Sleep
	_ = s // taking the value is fine; only calls are flagged
	(time.Sleep)(time.Millisecond) // want `time.Sleep in non-test code`
}

// Allowed documents an intentional wall-clock pause.
func Allowed() {
	time.Sleep(time.Millisecond) //mits:allow sleepless rate-limit against a real device
}

// Stale kept its suppression after the sleep it excused went away: the
// suppression is now the finding (the rule lives in the lint driver,
// so every analyzer's suppressions get it).
func Stale() time.Duration {
	return time.Millisecond //mits:allow sleepless rate-limit against a real device // want `suppression matches no sleepless finding`
}

// Clean synchronizes properly.
func Clean() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
	return time.Since(start)
}

//go:build race

package bench

// raceSlowdown stretches the workload tests' windows under the race
// detector, which slows the system about tenfold: a window must still
// be long enough for a cache to be hit.
const raceSlowdown = 8

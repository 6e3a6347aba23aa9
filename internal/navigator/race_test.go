//go:build race

package navigator

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put into it on purpose, so allocation counts are not the program's.
const raceEnabled = true

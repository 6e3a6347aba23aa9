//go:build !race

package navigator

const raceEnabled = false

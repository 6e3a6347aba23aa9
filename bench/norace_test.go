//go:build !race

package bench

const raceSlowdown = 1

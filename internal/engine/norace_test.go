//go:build !race

package engine

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false

//go:build !race

package corpus

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false

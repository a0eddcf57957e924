//go:build race

package engine

// raceEnabled reports a -race build, whose runtime allocates for its own
// bookkeeping: byte bounds on what a job allocates do not hold there.
const raceEnabled = true

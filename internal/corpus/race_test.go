//go:build race

package corpus

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put back: byte bounds that count on pooled chunks do not hold
// there.
const raceEnabled = true

//go:build race

package ph

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put back on purpose, so a pooled workspace may be rebuilt.
const raceEnabled = true

//go:build !race

package ph

const raceEnabled = false

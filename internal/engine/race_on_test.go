//go:build race

package engine

// raceEnabled: the race detector allocates on its own, so allocation-count
// tests skip under it.
const raceEnabled = true

//go:build race

package formats

// raceEnabled: the race detector allocates on its own, so allocation-budget
// tests skip under it.
const raceEnabled = true

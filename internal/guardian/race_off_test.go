//go:build !race

package guardian

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false

//go:build race

package report

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation ceilings are not meaningful under it.
const raceEnabled = true

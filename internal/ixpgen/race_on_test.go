//go:build race

package ixpgen

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation ceilings are not meaningful under it.
const raceEnabled = true

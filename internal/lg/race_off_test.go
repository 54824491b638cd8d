//go:build !race

package lg

const raceEnabled = false

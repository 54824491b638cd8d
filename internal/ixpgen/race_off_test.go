//go:build !race

package ixpgen

const raceEnabled = false

//go:build !race

package ixpd

const raceEnabled = false

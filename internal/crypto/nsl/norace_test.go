//go:build !race

package nsl

const raceEnabled = false

//go:build race

package nsl

const raceEnabled = true

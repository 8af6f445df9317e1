//go:build !race

package vote

const raceEnabled = false

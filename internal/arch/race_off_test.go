//go:build !race

package arch

const raceEnabled = false

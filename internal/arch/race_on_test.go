//go:build race

package arch

// raceEnabled lets the 64-ToR compile cases skip under the race detector,
// which slows the compile pipeline past the tier-2 time budget.
const raceEnabled = true

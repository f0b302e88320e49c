//go:build race

package core

// raceEnabled gates the AllocsPerRun regression tests: the race detector
// instruments allocations and would trip them spuriously.
const raceEnabled = true

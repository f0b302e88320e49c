//go:build !race

package engine

// raceEnabled gates the heap-footprint test: the race detector
// instruments allocations and would trip them spuriously.
const raceEnabled = false

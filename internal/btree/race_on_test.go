//go:build race

package btree

// raceEnabled gates the node-size test: the race detector instruments
// allocations and changes what they cost.
const raceEnabled = true

//go:build !race

package btree

const raceEnabled = false

package btree

import (
	"runtime"
	"slices"
	"testing"
)

// fullLeaf returns a leaf of degree entries whose arena has room for
// degree+1 keys of keyLen bytes.
func fullLeaf[V any](keyLen int) *node[V] {
	n := newLeaf[V]()
	n.slots, n.vals = n.slots[:degree], n.vals[:degree]
	n.arena = slices.Grow(n.arena, (degree+1)*keyLen)
	return n
}

// TestNodeAllocationBytes pins what a node costs on the heap, its struct,
// its slot arrays and a leaf's arena, measured over 10 000 of each kind: a
// leaf of pointer values and 9-byte keys (the clustered tree's), a leaf of
// no values and 18-byte keys (an index's) and an interior node. A leaf's
// arena is full at degree+1 keys, the size an append split gives it. The
// 63-slot arrays are sized to fill their size classes, an interior node's
// with the 8-byte header Go puts on a pointer-holding object above 512
// bytes (DESIGN.md decision 23); a toolchain whose classes round
// differently fails here rather than quietly growing every table.
func TestNodeAllocationBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocations cost")
	}
	const nodes = 10_000
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perNode := func(alloc func() any) float64 {
		kept := make([]any, nodes)
		before := heap()
		for i := range kept {
			kept[i] = alloc()
		}
		used := heap() - before
		runtime.KeepAlive(kept)
		return float64(used) / nodes
	}
	for _, tc := range []struct {
		name  string
		alloc func() any
		limit float64
	}{
		{"pointer-valued leaf", func() any { return fullLeaf[*int](9) }, 1752},
		{"value-less leaf", func() any { return fullLeaf[struct{}](18) }, 1816},
		{"interior node", func() any { return newInterior[*int](degree) }, 1688},
	} {
		got := perNode(tc.alloc)
		t.Logf("%s: %.0f heap bytes (limit %.0f)", tc.name, got, tc.limit)
		if got > tc.limit {
			t.Errorf("a %s costs %.0f heap bytes, limit %.0f", tc.name, got, tc.limit)
		}
	}
}

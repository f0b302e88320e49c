package btree

import (
	"runtime"
	"testing"

	"sqlledger/internal/sqltypes"
)

// leafOf returns a leaf holding keys, inserted in ascending order.
func leafOf[V any](keys [][]byte) *node[V] {
	n := newLeaf[V]()
	var zero V
	for i, k := range keys {
		n.insertAt(i, str(k), zero)
	}
	return n
}

// ascending returns degree keys that key(i) encodes from i = 4096 on.
func ascending(key func(i int64) []byte) [][]byte {
	keys := make([][]byte, degree)
	for i := range keys {
		keys[i] = key(4096 + int64(i))
	}
	return keys
}

// TestNodeAllocationBytes pins what a node costs on the heap, its struct,
// its slot arrays and a leaf's arena, measured over 10 000 of each kind:
// full leaves of ascending keys, put in order — of pointer values and
// 9-byte encoded ids (the clustered tree's), of no values and 18-byte
// entries, a value then the id (an index's), and of pointer values and
// 36-byte order-line keys, four BIGINTs of which the last counts 1 to 10
// (tpcc's largest table) — and an interior node. A leaf's arena holds the
// prefix of its keys once and their suffixes, with what its growth left
// to spare. The 63-slot arrays are sized to fill their size classes, an
// interior node's with the 8-byte header Go puts on a pointer-holding
// object above 512 bytes (DESIGN.md decision 23); a toolchain whose
// classes round differently fails here rather than quietly growing every
// table.
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
	big := sqltypes.NewBigInt
	ids := ascending(func(i int64) []byte { return sqltypes.EncodeKey(nil, big(i)) })
	entries := ascending(func(i int64) []byte { return sqltypes.EncodeKey(nil, big(3*i), big(i)) })
	orderLines := ascending(func(i int64) []byte { return sqltypes.EncodeKey(nil, big(1), big(7), big(3000+i/10), big(1+i%10)) })
	for _, tc := range []struct {
		name  string
		alloc func() any
		limit float64
	}{
		{"pointer-valued leaf", func() any { return leafOf[*int](ids) }, 1272},
		{"value-less leaf", func() any { return leafOf[struct{}](entries) }, 1368},
		{"order-line leaf", func() any { return leafOf[*int](orderLines) }, 1944},
		{"interior node", func() any { return newInterior[*int](degree) }, 1688},
	} {
		got := perNode(tc.alloc)
		t.Logf("%s: %.0f heap bytes (limit %.0f)", tc.name, got, tc.limit)
		if got > tc.limit {
			t.Errorf("a %s costs %.0f heap bytes, limit %.0f", tc.name, got, tc.limit)
		}
	}
}

package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"sqlledger/internal/btree"
)

// rowStore is a table's clustered row storage: a B+tree of version chains
// for a keyed table, and for a heap (TableMeta.Heap), whose keys are the
// 8-byte big-endian row ids allocRID hands out, the chains by value in
// chunks indexed by row id. Row id r is slot r-1; chunk k holds
// heapChunkMin<<k slots up to heapChunkMax, which fill the 32 KiB size
// class. A chunk is allocated on first use and freed when emptied, and
// chunks[0] is chunk base. Chains never move, and an empty slot is the
// zero chain. Each method branches once on the kind; a struct, not an
// interface, keeps a stack-built lookup key on the stack.
type rowStore struct {
	tree   *btree.Tree[*versionChain] // nil for a heap
	chunks []heapChunk
	base   int
}

type heapChunk struct {
	slots []versionChain
	used  int // slots holding a chain
}

const (
	heapChunkMin = 4
	heapChunkMax = 32 << 10 / uint64(unsafe.Sizeof(versionChain{}))
	heapGeo      = 8 // chunks below the cap: heapChunkMin<<heapGeo >= heapChunkMax
	// maxHeapChunks bounds a heap's span: ≈850 M row ids, and a directory
	// a hostile snapshot cannot make larger than 32 MiB.
	maxHeapChunks = 1 << 20
)

// heapChunkStart returns the first slot of chunk k.
func heapChunkStart(k int) uint64 {
	if k < heapGeo {
		return heapChunkMin * (1<<k - 1)
	}
	return heapChunkMin*(1<<heapGeo-1) + uint64(k-heapGeo)*heapChunkMax
}

// heapChunkOf returns the chunk holding slot i, row id i+1.
func heapChunkOf(i uint64) int {
	if i < heapChunkStart(heapGeo) {
		return bits.Len64(i/heapChunkMin+1) - 1
	}
	return heapGeo + int((i-heapChunkStart(heapGeo))/heapChunkMax)
}

// heapSlot returns the slot and chunk of a heap key, chunk -1 for a key
// that is no row id.
func heapSlot(key []byte) (uint64, int) {
	if len(key) != 8 || binary.BigEndian.Uint64(key) == 0 {
		return 0, -1
	}
	i := binary.BigEndian.Uint64(key) - 1
	return i, heapChunkOf(i)
}

// stored reports whether a heap slot holds a chain: a row, a tombstone
// with its commit timestamp, or superseded versions.
func (c *versionChain) stored() bool {
	return c.newest.ts != 0 || c.newest.row != nil || c.older != nil
}

// Get returns the chain under key.
func (s *rowStore) Get(key []byte) (*versionChain, bool) {
	if s.tree != nil {
		return s.tree.Get(key)
	}
	i, k := heapSlot(key)
	if k < s.base || k >= s.base+len(s.chunks) || s.chunks[k-s.base].slots == nil {
		return nil, false
	}
	c := &s.chunks[k-s.base].slots[i-heapChunkStart(k)]
	return c, c.stored()
}

// GetEntry is Get that also returns a copy of key that never changes.
func (s *rowStore) GetEntry(key []byte) ([]byte, *versionChain, bool) {
	if s.tree != nil {
		return s.tree.GetEntry(key)
	}
	c, ok := s.Get(key)
	return bytes.Clone(key), c, ok
}

// fits reports whether the store can hold a chain under key: in a heap, a
// row id within maxHeapChunks chunks of every row there.
func (s *rowStore) fits(key []byte) bool {
	if s.tree != nil {
		return true
	}
	_, k := heapSlot(key)
	last := s.base + len(s.chunks) - 1
	return k >= 0 && (len(s.chunks) == 0 || max(k, last)-min(k, s.base) < maxHeapChunks)
}

// GetOrPut returns the chain under key if there is one, and otherwise
// stores c there and returns the stored chain. key must fit.
func (s *rowStore) GetOrPut(key []byte, c versionChain) (*versionChain, bool) {
	if s.tree != nil {
		p := new(versionChain)
		*p = c
		return s.tree.GetOrPut(key, p)
	}
	if !s.fits(key) {
		panic(fmt.Sprintf("engine: a %d-byte heap key is out of range", len(key)))
	}
	i, k := heapSlot(key)
	switch n := len(s.chunks); {
	case n == 0:
		s.base, s.chunks = k, make([]heapChunk, 1)
	case k < s.base:
		s.base, s.chunks = k, append(make([]heapChunk, s.base-k, s.base-k+n), s.chunks...)
	case k >= s.base+n:
		s.chunks = append(s.chunks, make([]heapChunk, k-s.base-n+1)...)
	}
	ch := &s.chunks[k-s.base]
	if ch.slots == nil {
		ch.slots = make([]versionChain, heapChunkStart(k+1)-heapChunkStart(k))
	}
	p := &ch.slots[i-heapChunkStart(k)]
	if p.stored() {
		return p, true
	}
	*p, ch.used = c, ch.used+1
	return p, false
}

// Delete removes the chain under key; a heap frees the chunk it empties.
func (s *rowStore) Delete(key []byte) {
	if s.tree != nil {
		s.tree.Delete(key)
		return
	}
	if c, ok := s.Get(key); ok {
		*c = versionChain{}
		_, k := heapSlot(key)
		if ch := &s.chunks[k-s.base]; ch.used == 1 {
			*ch = heapChunk{}
		} else {
			ch.used--
		}
		for len(s.chunks) > 0 && s.chunks[0].slots == nil {
			s.base, s.chunks = s.base+1, s.chunks[1:]
		}
	}
}

// ridAtOrAbove returns the least row id whose key is at or above b in byte
// order, where a longer key sorts after its 8-byte prefix.
func ridAtOrAbove(b []byte) uint64 {
	var pad [8]byte
	copy(pad[:], b)
	r := binary.BigEndian.Uint64(pad[:])
	if len(b) > 8 && r < math.MaxUint64 {
		r++
	}
	return max(r, 1)
}

// AscendRange calls fn for every chain with start <= key < end, in key
// order, until fn returns false; nil bounds are open. The keys fn gets
// never change: a heap carves them from blocks each scan allocates.
func (s *rowStore) AscendRange(start, end []byte, fn func(key []byte, c *versionChain) bool) {
	if s.tree != nil {
		s.tree.AscendRange(start, end, fn)
		return
	}
	lo, hi := ridAtOrAbove(start), uint64(math.MaxUint64)
	if end != nil {
		hi = ridAtOrAbove(end)
	}
	var keys []byte
	for k := max(s.base, heapChunkOf(lo-1)); k < s.base+len(s.chunks) && heapChunkStart(k) < hi; k++ {
		slots, first := s.chunks[k-s.base].slots, heapChunkStart(k)+1
		for i := max(lo, first) - first; i < uint64(len(slots)) && first+i < hi; i++ {
			if !slots[i].stored() {
				continue
			}
			if len(keys) == cap(keys) {
				keys = make([]byte, 0, 8*min(max(cap(keys)/4, 16), 1024))
			}
			keys = binary.BigEndian.AppendUint64(keys, first+i)
			if !fn(keys[len(keys)-8:len(keys):len(keys)], &slots[i]) {
				return
			}
		}
	}
}

// Ascend scans every chain in key order.
func (s *rowStore) Ascend(fn func(key []byte, c *versionChain) bool) {
	s.AscendRange(nil, nil, fn)
}

// ShardBoundaries returns up to n-1 ascending keys that cut the key space
// into ranges of about equal size: a heap's, equal spans of row ids no
// shorter than a full chunk.
func (s *rowStore) ShardBoundaries(n int) [][]byte {
	if s.tree != nil {
		return s.tree.ShardBoundaries(n)
	}
	lo, hi := heapChunkStart(s.base)+1, heapChunkStart(s.base+len(s.chunks))+1
	n = min(n, int((hi-lo)/heapChunkMax))
	var out [][]byte
	for i := 1; i < n; i++ {
		out = append(out, binary.BigEndian.AppendUint64(nil, lo+uint64(i)*(hi-lo)/uint64(n)))
	}
	return out
}

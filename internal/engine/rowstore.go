package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"sqlledger/internal/btree"
)

// rowStore is a table's clustered row storage: a B+tree of version chains
// for a keyed table, and for a heap (TableMeta.Heap), whose keys are the
// 8-byte big-endian row ids allocRID hands out, 16-byte slots in chunks
// indexed by row id. Row id r is slot r-1; chunk k holds heapChunkMin<<k
// slots up to heapChunkMax, which fill the 32 KiB size class. A chunk is
// allocated on first use and freed when emptied, and chunks[0] is chunk
// base. A slot holds its row's newest version: the commit timestamp, and
// where the row's bytes lie in pages the chunk owns. Pages are only ever
// appended to, so a view of a row stays what it was; once half a chunk's
// page bytes are dead the chunk repacks into fresh pages. The older
// versions of a heap row, which only updates, deletes and tampering make,
// sit in older by row id. Each method branches once on the kind; a
// struct, not an interface, keeps a stack-built lookup key on the stack.
type rowStore struct {
	tree   *btree.Tree[*versionChain] // nil for a heap
	chunks []heapChunk
	base   int
	older  map[uint64]*[]rowVersion // a heap row's superseded versions, by row id
}

// heapSlot is a heap row's newest version. n is the row's length plus one
// (0: no row, which is an empty slot or a tombstone) with heapOlder set
// while older holds versions of the row; ref is page<<heapPageBits |
// offset.
type heapSlot struct {
	ts  int64
	ref uint32
	n   uint32
}

type heapChunk struct {
	slots []heapSlot
	pages [][]byte
	used  int // slots holding a row or versions
	bytes int // bytes in pages
	dead  int // bytes in pages no slot refers to
}

const (
	heapChunkMin = 4
	heapChunkMax = 32 << 10 / uint64(unsafe.Sizeof(heapSlot{}))
	heapGeo      = 9 // chunks below the cap: heapChunkMin<<heapGeo >= heapChunkMax
	// maxHeapChunks bounds a heap's span: ≈1 G row ids, and a directory a
	// hostile snapshot cannot make larger than 36 MiB.
	maxHeapChunks = 1 << 19

	heapPageBits = 15
	heapPageMax  = 1 << heapPageBits // a longer row has a page of its own
	heapPageMin  = 256
	heapMaxPages = 1 << (32 - heapPageBits) // pages a ref can name
	heapOlder    = 1 << 31
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

// heapRID returns the row id of a heap key and its chunk, chunk -1 for a
// key that is no row id.
func heapRID(key []byte) (uint64, int) {
	if len(key) != 8 || binary.BigEndian.Uint64(key) == 0 {
		return 0, -1
	}
	rid := binary.BigEndian.Uint64(key)
	return rid, heapChunkOf(rid - 1)
}

// stored reports whether a slot holds a row, a tombstone with its commit
// timestamp, or superseded versions.
func (p *heapSlot) stored() bool { return p.ts != 0 || p.n != 0 }

// pageRow returns a view of p's row in pages, nil for none.
func pageRow(pages [][]byte, p heapSlot) []byte {
	switch n := p.n &^ heapOlder; n {
	case 0:
		return nil
	case 1:
		return []byte{}
	default:
		off := p.ref & (heapPageMax - 1)
		return pages[p.ref>>heapPageBits][off : off+n-1 : off+n-1]
	}
}

// put copies row into the pages and points p at it. A new page is sized
// for the rows still to come: the bytes a repack (want > 0) has left to
// copy, else the free slots at row's length, or a full page once every
// slot is taken; between heapPageMin and heapPageMax, and a longer row
// gets a page of its own. A directory that would outgrow a ref repacks
// first, which leaves at most a page per row.
func (ch *heapChunk) put(p *heapSlot, row []byte, want int) {
	p.ref, p.n = 0, p.n&heapOlder
	if row == nil {
		return
	}
	last := len(ch.pages) - 1
	if len(row) > 0 && (last < 0 || len(ch.pages[last])+len(row) > min(cap(ch.pages[last]), heapPageMax)) {
		if last+1 == heapMaxPages {
			ch.repack()
			ch.put(p, row, 0)
			return
		}
		want = cmp.Or(want, (len(ch.slots)-ch.used)*len(row), heapPageMax)
		if ch.pages == nil {
			ch.pages = make([][]byte, 0, len(ch.slots)*len(row)/heapPageMax+2)
		}
		ch.pages = append(ch.pages, slices.Grow([]byte(nil), max(len(row), min(max(want, heapPageMin), heapPageMax))))
		last++
	}
	p.n |= uint32(len(row)) + 1
	if len(row) > 0 {
		p.ref = uint32(last)<<heapPageBits | uint32(len(ch.pages[last]))
		ch.pages[last] = append(ch.pages[last], row...)
		ch.bytes += len(row)
	}
}

// release drops p's row from the pages, and repacks them once half their
// bytes are dead.
func (ch *heapChunk) release(p *heapSlot) {
	ch.dead += max(int(p.n&^heapOlder)-1, 0)
	p.ref, p.n = 0, p.n&heapOlder
	if 2*ch.dead >= ch.bytes && ch.dead > 0 {
		ch.repack()
	}
}

// repack copies the rows into fresh pages. The old pages are not written
// again, so views of them stay valid.
func (ch *heapChunk) repack() {
	old, left := ch.pages, ch.bytes-ch.dead
	ch.pages, ch.bytes, ch.dead = nil, 0, 0
	for i := range ch.slots {
		if row := pageRow(old, ch.slots[i]); row != nil {
			ch.put(&ch.slots[i], row, left)
			left -= len(row)
		}
	}
}

// slot returns heap row rid's chunk and slot; the chunk must be held.
func (s *rowStore) slot(rid uint64) (*heapChunk, *heapSlot) {
	k := heapChunkOf(rid - 1)
	ch := &s.chunks[k-s.base]
	return ch, &ch.slots[rid-1-heapChunkStart(k)]
}

// view returns heap row rid's versions, in slot p of chunk ch, as a chain
// whose rows are views.
func (s *rowStore) view(ch *heapChunk, p heapSlot, rid uint64) versionChain {
	v := versionChain{newest: rowVersion{ts: p.ts, row: pageRow(ch.pages, p)}}
	if p.n&heapOlder != 0 {
		v.older = s.older[rid]
	}
	return v
}

// set makes v heap row rid's versions, copying its newest row into the
// pages when newRow is set.
func (s *rowStore) set(rid uint64, v versionChain, newRow bool) {
	ch, p := s.slot(rid)
	if newRow {
		ch.release(p)
		ch.put(p, v.newest.row, 0)
	}
	p.ts = v.newest.ts
	switch {
	case v.older != nil:
		if s.older == nil {
			s.older = make(map[uint64]*[]rowVersion)
		}
		p.n |= heapOlder
		s.older[rid] = v.older
	case p.n&heapOlder != 0:
		p.n &^= heapOlder
		delete(s.older, rid)
	}
}

// rowRef is where a row's versions are: a keyed table's chain, or a heap
// row, which holds no chain and is reached by its row id.
type rowRef struct {
	c   *versionChain // nil for a heap row
	s   *rowStore
	rid uint64
}

func (r rowRef) chain() versionChain {
	if r.c != nil {
		return *r.c
	}
	ch, p := r.s.slot(r.rid)
	return r.s.view(ch, *p, r.rid)
}

func (r rowRef) at(ts int64) ([]byte, bool) { c := r.chain(); return c.at(ts) }
func (r rowRef) latestLive() ([]byte, bool) { c := r.chain(); return c.latestLive() }
func (r rowRef) versionCount() int          { c := r.chain(); return c.versionCount() }
func (r rowRef) hasOlder() bool             { return r.chain().older != nil }

// edit replaces the row's chain with what fn makes of it: a keyed table's
// in place, a heap row's written back, its newest row copied into the pages
// when newRow is set. The chain goes to fn and back by value, so a heap
// row's view never leaves the stack.
func (r rowRef) edit(newRow bool, fn func(c versionChain) versionChain) {
	if r.c != nil {
		*r.c = fn(*r.c)
		return
	}
	r.s.set(r.rid, fn(r.chain()), newRow)
}

// setLatestRow overwrites the newest version's row (tamper simulation and
// repair: edited storage creates no history).
func (r rowRef) setLatestRow(row []byte) {
	r.edit(true, func(c versionChain) versionChain { c.newest.row = row; return c })
}

// Get returns where the row under key is.
func (s *rowStore) Get(key []byte) (rowRef, bool) {
	if s.tree != nil {
		c, ok := s.tree.Get(key)
		return rowRef{c: c}, ok
	}
	rid, k := heapRID(key)
	if k < s.base || k >= s.base+len(s.chunks) || s.chunks[k-s.base].slots == nil {
		return rowRef{}, false
	}
	_, p := s.slot(rid)
	return rowRef{s: s, rid: rid}, p.stored()
}

// fits reports whether the store can hold a chain under key: in a heap, a
// row id within maxHeapChunks chunks of every row there.
func (s *rowStore) fits(key []byte) bool {
	if s.tree != nil {
		return true
	}
	_, k := heapRID(key)
	last := s.base + len(s.chunks) - 1
	return k >= 0 && (len(s.chunks) == 0 || max(k, last)-min(k, s.base) < maxHeapChunks)
}

// GetOrPut returns the row under key if there is one, and otherwise
// stores c, which has no older versions, there (a heap copies its row into
// a page). key must fit.
func (s *rowStore) GetOrPut(key []byte, c versionChain) (rowRef, bool) {
	if s.tree != nil {
		p := new(versionChain)
		*p = c
		got, found := s.tree.GetOrPut(key, p)
		return rowRef{c: got}, found
	}
	if !s.fits(key) {
		panic(fmt.Sprintf("engine: a %d-byte heap key is out of range", len(key)))
	}
	rid, k := heapRID(key)
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
		ch.slots = make([]heapSlot, heapChunkStart(k+1)-heapChunkStart(k))
	}
	r := rowRef{s: s, rid: rid}
	p := &ch.slots[rid-1-heapChunkStart(k)]
	if p.stored() {
		return r, true
	}
	p.ts = c.newest.ts
	ch.put(p, c.newest.row, 0)
	ch.used++
	return r, false
}

// Delete removes the row under key, and its older versions; a heap frees
// the chunk it empties.
func (s *rowStore) Delete(key []byte) {
	if s.tree != nil {
		if c, ok := s.tree.Delete(key); ok {
			c.older = nil // version GC may still hold the chain
		}
		return
	}
	r, ok := s.Get(key)
	if !ok {
		return
	}
	ch, p := s.slot(r.rid)
	ch.release(p)
	delete(s.older, r.rid)
	if *p = (heapSlot{}); ch.used == 1 {
		*ch = heapChunk{}
	} else {
		ch.used--
	}
	for len(s.chunks) > 0 && s.chunks[0].slots == nil {
		s.base, s.chunks = s.base+1, s.chunks[1:]
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
// order, until fn returns false; nil bounds are open. The key fn gets, and
// a heap's chain, which is a view, are valid only during the call: the
// tree materializes keys into a buffer, and a heap writes each row id into
// one the scan allocates.
func (s *rowStore) AscendRange(start, end []byte, fn func(key []byte, c *versionChain) bool) {
	if s.tree != nil {
		s.tree.AscendRange(start, end, fn)
		return
	}
	lo, hi := ridAtOrAbove(start), uint64(math.MaxUint64)
	if end != nil {
		hi = ridAtOrAbove(end)
	}
	key := make([]byte, 8)
	var v versionChain
	for k := max(s.base, heapChunkOf(lo-1)); k < s.base+len(s.chunks) && heapChunkStart(k) < hi; k++ {
		ch, first := &s.chunks[k-s.base], heapChunkStart(k)+1
		for i := max(lo, first) - first; i < uint64(len(ch.slots)) && first+i < hi; i++ {
			if !ch.slots[i].stored() {
				continue
			}
			binary.BigEndian.PutUint64(key, first+i)
			if v = s.view(ch, ch.slots[i], first+i); !fn(key, &v) {
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

// Package btree implements an in-memory B+tree with []byte keys, used by
// the engine for clustered table storage and nonclustered indexes. Keys
// compare bytewise (the engine encodes keys with the order-preserving
// encoding from internal/sqltypes). Leaves are linked for fast ordered
// range scans. Nodes are allocated once at full size, append-order inserts
// leave full leaves behind, and vacated slots are cleared (DESIGN.md
// decision 23).
//
// A leaf keeps the bytes of its keys in one arena, and a slot is an 8-byte
// span of it; an interior node keeps its separators as strings, each its
// own copy. The tree copies every key it stores. The keys it hands out
// are views into an arena, which is only ever appended to: when it fills
// up, or half of it is dead after deletes, the leaf moves to a packed copy
// and leaves the old one to the views that still reference it, so a view
// reads the same bytes for as long as it is kept.
package btree

import (
	"slices"
	"strings"
	"unsafe"
)

const (
	// degree is the maximum number of keys per node; nodes split when
	// they would exceed it and merge/borrow when they fall below half.
	// A node's arrays have room for one more, so an interior node's 63
	// separators of 16 bytes fill the 1024-byte size class with the 8-byte
	// header Go puts on a pointer-holding object above 512 bytes, and a
	// leaf's 63 spans of 8 bytes, or 63 pointer values, fill the 512-byte
	// class, which needs none.
	degree = 62
	minLen = degree / 2
)

// str views key as a string without copying it.
func str(key []byte) string { return unsafe.String(unsafe.SliceData(key), len(key)) }

// bytesOf views a separator as a slice of its bytes.
func bytesOf(key string) []byte { return unsafe.Slice(unsafe.StringData(key), len(key)) }

// Tree is a B+tree mapping []byte keys to values of type V. The zero Tree
// is not ready for use; call New.
type Tree[V any] struct {
	root *node[V]
	size int
}

// span is where a leaf's key lies in its arena.
type span struct{ off, n uint32 }

type node[V any] struct {
	// keys holds an interior node's separators.
	keys []string
	// children is populated for interior nodes: len(children) == len(keys)+1.
	children []*node[V]
	// slots holds a leaf's keys in ascending order, as spans of arena,
	// which is only appended to; dead counts its bytes no slot covers.
	slots []span
	arena []byte
	dead  int
	// vals is populated for leaves, parallel to slots.
	vals []V
	// next links leaves in ascending key order.
	next *node[V]
	leaf bool
}

// newLeaf returns an empty leaf, with room for degree+1 entries.
func newLeaf[V any]() *node[V] {
	return &node[V]{leaf: true, slots: make([]span, 0, degree+1), vals: make([]V, 0, degree+1)}
}

// newInterior returns an interior node holding n separators and n+1
// children, with room for degree+1 and degree+2.
func newInterior[V any](n int) *node[V] {
	return &node[V]{keys: make([]string, n, degree+1), children: make([]*node[V], n+1, degree+2)}
}

// entries returns how many keys n holds: a leaf has no separators, and an
// interior node no slots.
func (n *node[V]) entries() int { return len(n.slots) + len(n.keys) }

// key views leaf entry i's key in the arena.
func (n *node[V]) key(i int) string {
	s := n.slots[i]
	return unsafe.String(unsafe.SliceData(n.arena[s.off:]), s.n)
}

// view is key as a slice, capped at its length so an append to it cannot
// reach the arena.
func (n *node[V]) view(i int) []byte {
	s := n.slots[i]
	return n.arena[s.off : s.off+s.n : s.off+s.n]
}

// seek returns the index of the leaf's first key >= target and whether it
// is an exact match.
func (n *node[V]) seek(target string) (int, bool) {
	lo, hi := 0, len(n.slots)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.key(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.slots) && n.key(lo) == target
}

// reserve makes room for extra more bytes at the end of the arena.
func (n *node[V]) reserve(extra int) {
	if len(n.arena)+extra > cap(n.arena) {
		n.repack(extra)
	}
}

// repack moves the leaf's keys into a packed arena with room for extra
// more bytes, and a quarter of the total to spare. The old arena is not
// written again.
func (n *node[V]) repack(extra int) {
	arena := slices.Grow([]byte(nil), (len(n.arena)-n.dead+extra)*5/4)
	for i, s := range n.slots {
		n.slots[i].off = uint32(len(arena))
		arena = append(arena, n.arena[s.off:s.off+s.n]...)
	}
	n.arena, n.dead = arena, 0
}

// insertAt copies key into the arena and puts it, with val, at slot i.
func (n *node[V]) insertAt(i int, key string, val V) {
	n.reserve(len(key))
	n.slots = slices.Insert(n.slots, i, span{uint32(len(n.arena)), uint32(len(key))})
	n.arena = append(n.arena, key...)
	n.vals = slices.Insert(n.vals, i, val)
}

// removeAt drops leaf entry i, and repacks the arena once half of it is
// dead.
func (n *node[V]) removeAt(i int) {
	n.dead += int(n.slots[i].n)
	n.slots, n.vals = slices.Delete(n.slots, i, i+1), slices.Delete(n.vals, i, i+1)
	if 2*n.dead > len(n.arena) {
		n.repack(0)
	}
}

// New returns an empty tree. Its root leaf allocates on the first insert.
func New[V any]() *Tree[V] {
	return &Tree[V]{root: &node[V]{leaf: true}}
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

// Get returns the value for key.
func (t *Tree[V]) Get(key []byte) (V, bool) {
	n, i, found := t.find(str(key))
	if !found {
		var zero V
		return zero, false
	}
	return n.vals[i], true
}

// GetEntry is Get that also returns the tree's copy of key, which never
// changes and which a caller may keep in place of its own.
func (t *Tree[V]) GetEntry(key []byte) ([]byte, V, bool) {
	n, i, found := t.find(str(key))
	if !found {
		var zero V
		return nil, zero, false
	}
	return n.view(i), n.vals[i], true
}

// find returns the leaf that covers key, the index of the first key there
// >= key, and whether it is an exact match.
func (t *Tree[V]) find(key string) (*node[V], int, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, found := n.seek(key)
	return n, i, found
}

// childIndex returns which child of an interior node covers key. Separator
// semantics: child[i] holds keys < keys[i]; child[i] keys are >= keys[i-1].
func childIndex(keys []string, key string) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if key >= keys[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Put inserts or replaces the value for key, returning the previous value
// if one existed. The tree stores a copy of key.
func (t *Tree[V]) Put(key []byte, val V) (old V, replaced bool) {
	return t.upsert(key, val, true)
}

// GetOrPut returns the value under key if there is one, and otherwise
// inserts val under a copy of key — one descent either way, where Get
// then Put takes two.
func (t *Tree[V]) GetOrPut(key []byte, val V) (existing V, found bool) {
	return t.upsert(key, val, false)
}

func (t *Tree[V]) upsert(key []byte, val V, replace bool) (V, bool) {
	old, found, sepKey, right := t.insert(t.root, str(key), val, replace, true)
	if right != nil {
		root := newInterior[V](1)
		root.keys[0], root.children[0], root.children[1] = sepKey, t.root, right
		t.root = root
	}
	if !found {
		t.size++
	}
	return old, found
}

// insert puts key under n, which is on the tree's rightmost path when
// rightmost is set. A node that overflows splits: it returns the new right
// sibling and the separator before it.
func (t *Tree[V]) insert(n *node[V], key string, val V, replace, rightmost bool) (old V, found bool, sepKey string, right *node[V]) {
	if n.leaf {
		i, found := n.seek(key)
		if found {
			old = n.vals[i]
			if replace {
				n.vals[i] = val
			}
			return old, true, "", nil
		}
		if n.slots == nil { // the empty tree's root leaf
			*n = *newLeaf[V]()
		}
		if len(n.slots) == degree {
			sepKey, right = splitLeaf(n, i, key, val, rightmost)
		} else {
			n.insertAt(i, key, val)
		}
		return old, false, sepKey, right
	}
	ci := childIndex(n.keys, key)
	last := ci == len(n.keys)
	old, found, childSep, childRight := t.insert(n.children[ci], key, val, replace, rightmost && last)
	if childRight != nil {
		n.keys = slices.Insert(n.keys, ci, childSep)
		n.children = slices.Insert(n.children, ci+1, childRight)
		if len(n.keys) > degree {
			sepKey, right = splitInterior(n, rightmost && last)
		}
	}
	return old, found, sepKey, right
}

// splitLeaf inserts key and val at entry i of the full leaf n by moving
// the entries above a split point into a new right sibling, and returns
// the separator before it. The split point is the middle, or — on the
// tree's rightmost leaf, when i is in the upper half — i, so the left leaf
// keeps every key below the new one. An insert past the largest key leaves
// the left leaf full; so does one a little below it, as when commits reach
// an ascending key out of order.
//
// A middle split repacks both halves' arenas to their live bytes and a
// quarter more. An append split leaves the left arena as it is and sizes
// the right one for degree+1 keys as long as the ones it gets, which the
// appends that follow fill.
func splitLeaf[V any](n *node[V], i int, key string, val V, rightmost bool) (string, *node[V]) {
	mid := (degree + 1) / 2
	appended := rightmost && i > mid
	if appended {
		mid = i
	}
	// With key at i, the entries from mid on go right: n's own from k on.
	k, extra := mid, 0
	if i < mid {
		k, extra = mid-1, len(key)
	}
	moved := 0
	for _, s := range n.slots[k:] {
		moved += int(s.n)
	}
	right := newLeaf[V]()
	if appended {
		keys := degree + 1 - mid
		right.arena = slices.Grow(right.arena, (degree+1)*((moved+len(key)+keys-1)/keys))
	} else {
		right.arena = slices.Grow(right.arena, (moved+len(key)-extra)*5/4)
	}
	for j := k; j < len(n.slots); j++ {
		right.insertAt(len(right.slots), n.key(j), n.vals[j])
	}
	n.dead += moved
	clear(n.vals[k:])
	n.slots, n.vals = n.slots[:k], n.vals[:k]
	if !appended {
		n.repack(extra)
	}
	if i < mid {
		n.insertAt(i, key, val)
	} else {
		right.insertAt(i-mid, key, val)
	}
	right.next, n.next = n.next, right
	return strings.Clone(right.key(0)), right
}

// splitInterior moves the upper separators and children of the overfull
// interior node n into a new right sibling, and returns the separator
// between them. Append order on the rightmost path leaves the right node
// one separator, the fewest a non-root interior node may hold.
func splitInterior[V any](n *node[V], appended bool) (string, *node[V]) {
	mid := len(n.keys) / 2
	if appended {
		mid = len(n.keys) - 2
	}
	sep := n.keys[mid]
	right := newInterior[V](len(n.keys) - mid - 1)
	copy(right.keys, n.keys[mid+1:])
	copy(right.children, n.children[mid+1:])
	clear(n.keys[mid:])
	clear(n.children[mid+1:])
	n.keys, n.children = n.keys[:mid], n.children[:mid+1]
	return sep, right
}

// buildFill is how full BuildSorted packs each node: 3/4 of degree, so a
// freshly bulk-loaded tree absorbs trickle inserts without immediately
// splitting every leaf, while staying comfortably above minLen.
const buildFill = degree * 3 / 4

// BuildSorted constructs a tree from keys already in strictly ascending
// order, with vals parallel to keys. It packs leaves bottom-up in O(n)
// instead of O(n log n) Put calls — the fast path for snapshot load and
// parallel WAL replay, where rows arrive pre-sorted per table. Each leaf
// copies its keys into an arena allocated once. Behavior is undefined if
// keys are unsorted or contain duplicates.
func BuildSorted[V any](keys [][]byte, vals []V) *Tree[V] {
	if len(keys) == 0 {
		return New[V]()
	}
	// Leaf level: pack keys into leaves of buildFill entries, linked in
	// ascending order. The final leaf keeps the remainder (>= 1 entry);
	// underfull nodes are legal here — rebalance only runs after deletes,
	// and a merge of two nodes at or below minLen still fits in degree.
	var leaves []*node[V]
	for i := 0; i < len(keys); i += buildFill {
		j := min(i+buildFill, len(keys))
		n := newLeaf[V]()
		size := 0
		for _, key := range keys[i:j] {
			size += len(key)
		}
		n.arena = slices.Grow(n.arena, size)
		for k, key := range keys[i:j] {
			n.insertAt(k, str(key), vals[i+k])
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = n
		}
		leaves = append(leaves, n)
	}
	// Interior levels: group children buildFill+1 at a time; the separator
	// before child c is the smallest key in c's subtree. Never leave a
	// trailing group of one child (an interior node needs >= 1 separator),
	// so a would-be singleton steals a child from the previous group.
	level := leaves
	first := make([]string, len(level))
	for i, n := range level[1:] {
		first[i+1] = strings.Clone(n.key(0))
	}
	for len(level) > 1 {
		var parents []*node[V]
		var parentFirst []string
		for i := 0; i < len(level); {
			take := buildFill + 1
			if rem := len(level) - i; take > rem {
				take = rem
			} else if len(level)-(i+take) == 1 {
				take--
			}
			p := newInterior[V](take - 1)
			copy(p.children, level[i:i+take])
			copy(p.keys, first[i+1:i+take])
			parents = append(parents, p)
			parentFirst = append(parentFirst, first[i])
			i += take
		}
		level, first = parents, parentFirst
	}
	return &Tree[V]{root: level[0], size: len(keys)}
}

// Delete removes key, returning its value if present.
func (t *Tree[V]) Delete(key []byte) (V, bool) {
	old, found := t.remove(t.root, str(key))
	if found {
		t.size--
		if !t.root.leaf && len(t.root.children) == 1 {
			t.root = t.root.children[0]
		}
	}
	return old, found
}

func (t *Tree[V]) remove(n *node[V], key string) (V, bool) {
	if n.leaf {
		i, found := n.seek(key)
		if !found {
			var zero V
			return zero, false
		}
		old := n.vals[i]
		n.removeAt(i)
		return old, true
	}
	ci := childIndex(n.keys, key)
	old, found := t.remove(n.children[ci], key)
	if found && n.children[ci].entries() < minLen {
		t.rebalance(n, ci)
	}
	return old, found
}

// rebalance fixes up child ci of n after a deletion left it underfull. A
// separator a leaf's key becomes is a copy, so no interior node holds on
// to a leaf's arena.
func (t *Tree[V]) rebalance(n *node[V], ci int) {
	child := n.children[ci]
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := n.children[ci-1]
		if last := left.entries() - 1; last >= minLen {
			if child.leaf {
				child.insertAt(0, left.key(last), left.vals[last])
				left.removeAt(last)
				n.keys[ci-1] = strings.Clone(child.key(0))
			} else {
				child.keys = slices.Insert(child.keys, 0, n.keys[ci-1])
				child.children = slices.Insert(child.children, 0, left.children[last+1])
				n.keys[ci-1] = left.keys[last]
				left.keys, left.children = slices.Delete(left.keys, last, last+1), slices.Delete(left.children, last+1, last+2)
			}
			return
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(n.children)-1 {
		rightSib := n.children[ci+1]
		if rightSib.entries() > minLen {
			if child.leaf {
				child.insertAt(len(child.slots), rightSib.key(0), rightSib.vals[0])
				rightSib.removeAt(0)
				n.keys[ci] = strings.Clone(rightSib.key(0))
			} else {
				child.keys = append(child.keys, n.keys[ci])
				child.children = append(child.children, rightSib.children[0])
				n.keys[ci] = rightSib.keys[0]
				rightSib.keys, rightSib.children = slices.Delete(rightSib.keys, 0, 1), slices.Delete(rightSib.children, 0, 1)
			}
			return
		}
	}
	// Merge with a sibling.
	if ci > 0 {
		t.merge(n, ci-1)
	} else {
		t.merge(n, ci)
	}
}

// merge folds child i+1 of n into child i. Neither holds more than minLen
// entries, so the result fits without growing child i's slices.
func (t *Tree[V]) merge(n *node[V], i int) {
	left, right := n.children[i], n.children[i+1]
	if left.leaf {
		left.reserve(len(right.arena) - right.dead)
		for j := range right.slots {
			left.insertAt(len(left.slots), right.key(j), right.vals[j])
		}
		left.next = right.next
	} else {
		left.keys = append(append(left.keys, n.keys[i]), right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys, n.children = slices.Delete(n.keys, i, i+1), slices.Delete(n.children, i+1, i+2)
}

// AscendRange calls fn for every entry with start <= key < end, in key
// order. A nil start begins at the smallest key; a nil end scans to the
// largest. fn returning false stops the scan.
func (t *Tree[V]) AscendRange(start, end []byte, fn func(key []byte, val V) bool) {
	lo, hi := str(start), str(end)
	n := t.root
	for !n.leaf {
		if start == nil {
			n = n.children[0]
		} else {
			n = n.children[childIndex(n.keys, lo)]
		}
	}
	i := 0
	if start != nil {
		i, _ = n.seek(lo)
	}
	for n != nil {
		for ; i < len(n.slots); i++ {
			if end != nil && n.key(i) >= hi {
				return
			}
			if !fn(n.view(i), n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Ascend scans all entries in key order.
func (t *Tree[V]) Ascend(fn func(key []byte, val V) bool) {
	t.AscendRange(nil, nil, fn)
}

// separators calls fn, in ascending key order, with every separator key
// stored in interior nodes of the subtree rooted at nd: one per boundary
// between two of its leaves. An in-order walk yields them sorted.
func separators[V any](nd *node[V], fn func(string)) {
	if nd.leaf {
		return
	}
	for i, k := range nd.keys {
		separators(nd.children[i], fn)
		fn(k)
	}
	separators(nd.children[len(nd.children)-1], fn)
}

// ShardBoundaries returns up to n-1 separator keys, in ascending order,
// that partition the key space into roughly equal contiguous ranges for
// parallel scans: [nil, b0), [b0, b1), ..., [bk, nil). The boundaries are
// real separator keys from the tree, so the ranges track the actual key
// distribution; they need not currently exist as entries. A tree of fewer
// than n leaves yields fewer than n-1 boundaries (a single leaf, none).
func (t *Tree[V]) ShardBoundaries(n int) [][]byte {
	if n <= 1 || t.root.leaf {
		return nil
	}
	// Take n-1 evenly spaced leaf boundaries, separators i*total/n: leaves
	// hold minLen to degree entries, so even spacing in leaves is near-even
	// spacing in rows. The root's separators alone would not do: append
	// order leaves the subtrees on the rightmost path far smaller than their
	// siblings.
	total := 0
	separators(t.root, func(string) { total++ })
	out := make([][]byte, 0, min(total, n-1))
	i := 0
	separators(t.root, func(k string) {
		if len(out) < cap(out) && (total < n || i == (len(out)+1)*total/n) {
			out = append(out, bytesOf(k))
		}
		i++
	})
	return out
}

// Max returns the largest key.
func (t *Tree[V]) Max() ([]byte, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.slots) == 0 {
		return nil, false
	}
	return n.view(len(n.slots) - 1), true
}

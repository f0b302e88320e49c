// Package btree implements an in-memory B+tree with []byte keys, used by
// the engine for clustered table storage and nonclustered indexes. Keys
// compare bytewise (the engine encodes keys with the order-preserving
// encoding from internal/sqltypes). Leaves are linked for fast ordered
// range scans. Nodes are allocated once at full size, append-order inserts
// leave full leaves behind, and vacated slots are cleared (DESIGN.md
// decision 23).
//
// A node holds its keys as strings that view the caller's slices: a
// string header is 16 bytes where a slice's is 24, and the tree already
// retains key slices its callers must not mutate. Keys go back out as
// slices over the same bytes.
package btree

import (
	"slices"
	"unsafe"
)

const (
	// degree is the maximum number of keys per node; nodes split when
	// they would exceed it and merge/borrow when they fall below half.
	// A node's arrays have room for one more, so 63 key slots of 16 bytes
	// fill the 1024-byte size class with the 8-byte header Go puts on a
	// pointer-holding object above 512 bytes, and 63 pointer values fill
	// the 512-byte class, which needs none.
	degree = 62
	minLen = degree / 2
)

// str views key as a string without copying it.
func str(key []byte) string { return unsafe.String(unsafe.SliceData(key), len(key)) }

// bytesOf views a key the tree holds as a slice of the bytes it was given.
func bytesOf(key string) []byte { return unsafe.Slice(unsafe.StringData(key), len(key)) }

// Tree is a B+tree mapping []byte keys to values of type V. The zero Tree
// is not ready for use; call New.
type Tree[V any] struct {
	root *node[V]
	size int
}

type node[V any] struct {
	// keys holds the separator keys (interior) or entry keys (leaf).
	keys []string
	// children is populated for interior nodes: len(children) == len(keys)+1.
	children []*node[V]
	// vals is populated for leaves, parallel to keys.
	vals []V
	// next links leaves in ascending key order.
	next *node[V]
	leaf bool
}

// newLeaf returns a leaf holding n entries, with room for degree+1.
func newLeaf[V any](n int) *node[V] {
	return &node[V]{leaf: true, keys: make([]string, n, degree+1), vals: make([]V, n, degree+1)}
}

// newInterior returns an interior node holding n separators and n+1
// children, with room for degree+1 and degree+2.
func newInterior[V any](n int) *node[V] {
	return &node[V]{keys: make([]string, n, degree+1), children: make([]*node[V], n+1, degree+2)}
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

// GetEntry is Get that also returns the key slice the tree holds, which a
// caller may keep in place of its own copy of key.
func (t *Tree[V]) GetEntry(key []byte) ([]byte, V, bool) {
	n, i, found := t.find(str(key))
	if !found {
		var zero V
		return nil, zero, false
	}
	return bytesOf(n.keys[i]), n.vals[i], true
}

// find returns the leaf that covers key, the index of the first key there
// >= key, and whether it is an exact match.
func (t *Tree[V]) find(key string) (*node[V], int, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, found := search(n.keys, key)
	return n, i, found
}

// search returns the index of the first key >= target and whether it is an
// exact match.
func search(keys []string, target string) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == target
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
// if one existed. The key slice is retained; callers must not mutate it.
func (t *Tree[V]) Put(key []byte, val V) (old V, replaced bool) {
	return t.upsert(key, val, true)
}

// GetOrPut returns the value under key if there is one, and otherwise
// inserts val under key — one descent either way, where Get then Put takes
// two. The key slice is retained when inserted; callers must not mutate it.
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
		i, found := search(n.keys, key)
		if found {
			old = n.vals[i]
			if replace {
				n.vals[i] = val
			}
			return old, true, "", nil
		}
		if n.keys == nil { // the empty tree's root leaf
			*n = *newLeaf[V](0)
		}
		n.keys = slices.Insert(n.keys, i, key)
		n.vals = slices.Insert(n.vals, i, val)
		if len(n.keys) > degree {
			sepKey, right = splitLeaf(n, i, rightmost)
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

// splitLeaf moves the upper entries of the overfull leaf n, whose entry i
// was just inserted, into a new right sibling: half of them, or — on the
// tree's rightmost leaf, when i is in the upper half — entry i and those
// above it, so the left leaf keeps every key below the new one. An insert
// past the largest key leaves the left leaf full; so does one a little
// below it, as when commits reach an ascending key out of order.
func splitLeaf[V any](n *node[V], i int, rightmost bool) (string, *node[V]) {
	mid := len(n.keys) / 2
	if rightmost && i > mid {
		mid = i
	}
	right := newLeaf[V](len(n.keys) - mid)
	copy(right.keys, n.keys[mid:])
	copy(right.vals, n.vals[mid:])
	clear(n.keys[mid:])
	clear(n.vals[mid:])
	n.keys, n.vals = n.keys[:mid], n.vals[:mid]
	right.next, n.next = n.next, right
	return right.keys[0], right
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
// parallel WAL replay, where rows arrive pre-sorted per table. Key slices
// are retained; callers must not mutate them. Behavior is undefined if
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
		n := newLeaf[V](j - i)
		for k, key := range keys[i:j] {
			n.keys[k] = str(key)
		}
		copy(n.vals, vals[i:j])
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
	for i, n := range level {
		first[i] = n.keys[0]
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
		i, found := search(n.keys, key)
		if !found {
			var zero V
			return zero, false
		}
		old := n.vals[i]
		n.keys, n.vals = slices.Delete(n.keys, i, i+1), slices.Delete(n.vals, i, i+1)
		return old, true
	}
	ci := childIndex(n.keys, key)
	old, found := t.remove(n.children[ci], key)
	if found && len(n.children[ci].keys) < minLen {
		t.rebalance(n, ci)
	}
	return old, found
}

// rebalance fixes up child ci of n after a deletion left it underfull.
func (t *Tree[V]) rebalance(n *node[V], ci int) {
	child := n.children[ci]
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := n.children[ci-1]
		if last := len(left.keys) - 1; last >= minLen {
			if child.leaf {
				child.keys = slices.Insert(child.keys, 0, left.keys[last])
				child.vals = slices.Insert(child.vals, 0, left.vals[last])
				left.keys, left.vals = slices.Delete(left.keys, last, last+1), slices.Delete(left.vals, last, last+1)
				n.keys[ci-1] = child.keys[0]
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
		if len(rightSib.keys) > minLen {
			if child.leaf {
				child.keys = append(child.keys, rightSib.keys[0])
				child.vals = append(child.vals, rightSib.vals[0])
				rightSib.keys, rightSib.vals = slices.Delete(rightSib.keys, 0, 1), slices.Delete(rightSib.vals, 0, 1)
				n.keys[ci] = rightSib.keys[0]
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
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
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
		i, _ = search(n.keys, lo)
	}
	for n != nil {
		for ; i < len(n.keys); i++ {
			if end != nil && n.keys[i] >= hi {
				return
			}
			if !fn(bytesOf(n.keys[i]), n.vals[i]) {
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
	if len(n.keys) == 0 {
		return nil, false
	}
	return bytesOf(n.keys[len(n.keys)-1]), true
}

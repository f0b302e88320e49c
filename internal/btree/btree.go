// Package btree implements an in-memory B+tree with []byte keys, used by
// the engine for clustered table storage and nonclustered indexes. Keys
// compare bytewise (the engine encodes keys with the order-preserving
// encoding from internal/sqltypes). Leaves are linked for fast ordered
// range scans. Nodes are allocated once at full size, append-order inserts
// leave full leaves behind, and vacated slots are cleared (DESIGN.md
// decision 23).
//
// A leaf keeps the bytes of its keys in one arena: first the longest
// prefix all of them share, once, then each key's suffix, which a slot
// spans in 8 bytes. An interior node keeps its separators as strings, each
// its own copy. The tree copies every key it stores and hands none of its
// bytes out: a scan materializes each key into a buffer that is valid
// until the callback returns, and Max returns a copy.
package btree

import (
	"slices"
	"strings"
	"sync/atomic"
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

// lcp returns the length of the longest common prefix of a and b.
func lcp(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// Tree is a B+tree mapping []byte keys to values of type V. The zero Tree
// is not ready for use; call New.
type Tree[V any] struct {
	root *node[V]
	size int
	// keyBuf is the buffer a scan materializes keys into, which the scans
	// that run at once take turns to hold, so a scan allocates none.
	keyBuf atomic.Pointer[[]byte]
}

// span is where the suffix of a leaf's key lies in its arena.
type span struct{ off, n uint32 }

type node[V any] struct {
	// keys holds an interior node's separators.
	keys []string
	// children is populated for interior nodes: len(children) == len(keys)+1.
	children []*node[V]
	// slots holds a leaf's keys in ascending order, as spans of arena
	// after its first pre bytes, the prefix the keys share: that of the
	// first and the last key. dead counts the arena's bytes no slot
	// covers, besides the prefix.
	slots     []span
	arena     []byte
	dead, pre uint32
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

// prefix views the bytes every key of the leaf starts with.
func (n *node[V]) prefix() string { return unsafe.String(unsafe.SliceData(n.arena), n.pre) }

// suffix views what follows the prefix in leaf entry i's key.
func (n *node[V]) suffix(i int) string {
	s := n.slots[i]
	return unsafe.String(unsafe.SliceData(n.arena[s.off:]), s.n)
}

// appendKey appends leaf entry i's key to dst.
func (n *node[V]) appendKey(dst []byte, i int) []byte {
	return append(append(dst, n.prefix()...), n.suffix(i)...)
}

// shared returns the length of the prefix the leaf's keys share: that of
// its first and last key, as they are sorted.
func (n *node[V]) shared() int {
	if len(n.slots) == 0 {
		return 0
	}
	return int(n.pre) + lcp(n.suffix(0), n.suffix(len(n.slots)-1))
}

// size returns the arena bytes the leaf's keys take with a prefix of pre
// bytes, which all of them share.
func (n *node[V]) size(pre int) int {
	return pre + len(n.arena) - int(n.dead+n.pre) + (int(n.pre)-pre)*len(n.slots)
}

// seek returns the index of the leaf's first key >= target and whether it
// is an exact match. A target without the leaf's prefix sorts before or
// after all of its keys, as it sorts against the prefix.
func (n *node[V]) seek(target string) (int, bool) {
	if p := n.prefix(); !strings.HasPrefix(target, p) {
		if target < p {
			return 0, false
		}
		return len(n.slots), false
	}
	target = target[n.pre:]
	lo, hi := 0, len(n.slots)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.suffix(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.slots) && n.suffix(lo) == target
}

// pushKeys appends what follows n's prefix in the keys of src's entries lo
// to hi-1, which start with it, to the leaf n's arena and slots.
func (n *node[V]) pushKeys(src *node[V], lo, hi int) {
	for j := lo; j < hi; j++ {
		off := len(n.arena)
		if n.pre <= src.pre {
			n.arena = append(append(n.arena, src.arena[n.pre:src.pre]...), src.suffix(j)...)
		} else {
			n.arena = append(n.arena, src.suffix(j)[n.pre-src.pre:]...)
		}
		n.slots = append(n.slots, span{uint32(off), uint32(len(n.arena) - off)})
	}
}

// repack moves the leaf's keys into a packed arena of at least size bytes
// whose prefix is their first pre bytes, which all of them share.
func (n *node[V]) repack(pre, size int) {
	old := *n
	n.arena = slices.Grow([]byte(nil), max(size, n.size(pre)))
	if len(n.slots) > 0 {
		n.arena = old.appendKey(n.arena, 0)[:pre]
	}
	n.slots, n.pre, n.dead = n.slots[:0], uint32(pre), 0
	n.pushKeys(&old, 0, len(old.slots))
}

// reserve makes room for extra more bytes at the end of the arena,
// repacking to the live bytes and a quarter more.
func (n *node[V]) reserve(extra int) {
	if len(n.arena)+extra > cap(n.arena) {
		n.repack(int(n.pre), (n.size(int(n.pre))+extra)*5/4)
	}
}

// insertAt copies key into the leaf and puts it, with val, at slot i. A
// key that does not start with the prefix shortens it to what they share,
// and the leaf repacks, in an arena no smaller than it had. The first key
// of an empty leaf is its prefix.
func (n *node[V]) insertAt(i int, key string, val V) {
	switch p := n.prefix(); {
	case len(n.slots) == 0:
		n.arena, n.pre, n.dead = append(n.arena[:0], key...), uint32(len(key)), 0
	case !strings.HasPrefix(key, p):
		pre := lcp(key, p)
		n.repack(pre, max(cap(n.arena), (n.size(pre)+len(key)-pre)*5/4))
	default:
		n.reserve(len(key) - len(p))
	}
	suffix := key[n.pre:]
	n.slots = slices.Insert(n.slots, i, span{uint32(len(n.arena)), uint32(len(suffix))})
	n.arena = append(n.arena, suffix...)
	n.vals = slices.Insert(n.vals, i, val)
}

// removeAt drops leaf entry i. The leaf repacks when its first or last
// key goes and the rest share a longer prefix, or once half of its arena
// is dead.
func (n *node[V]) removeAt(i int) {
	n.dead += n.slots[i].n
	n.slots, n.vals = slices.Delete(n.slots, i, i+1), slices.Delete(n.vals, i, i+1)
	switch pre := n.shared(); {
	case len(n.slots) == 0:
		n.arena, n.pre, n.dead = n.arena[:0], 0, 0
	case pre != int(n.pre) || 2*int(n.dead) > len(n.arena):
		n.repack(pre, n.size(pre)*5/4)
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
// Each half takes the prefix of its own first and last key. A middle split
// packs both halves to their live bytes and a quarter more. An append split
// repacks the left half only if its prefix grew, and sizes the right one
// for degree+1 keys whose suffixes are as long as the bytes in which the
// new key differs from the one before it, which the appends that follow
// fill.
func splitLeaf[V any](n *node[V], i int, key string, val V, rightmost bool) (string, *node[V]) {
	mid := (degree + 1) / 2
	appended := rightmost && i > mid
	if appended {
		mid = i
	}
	// With key at i, the entries from mid on go right: n's own from k on.
	k := mid
	if i < mid {
		k = mid - 1
	}
	var buf [64]byte         // one of n's keys, to compare key with
	rp, moved := len(key), 0 // the right half's prefix, and n's suffix bytes it takes
	if k < len(n.slots) {
		rp = int(n.pre) + lcp(n.suffix(k), n.suffix(len(n.slots)-1))
		if i >= mid {
			rp = min(rp, lcp(key, str(n.appendKey(buf[:0], k))))
		}
	}
	for _, s := range n.slots[k:] {
		moved += int(s.n)
	}
	size := rp + moved + (int(n.pre)-rp)*(len(n.slots)-k)
	if i >= mid {
		size += len(key) - rp
	}
	right := newLeaf[V]()
	if appended {
		size = max(size, rp+(degree+1)*(len(key)-lcp(key, str(n.appendKey(buf[:0], i-1)))))
	} else {
		size = size * 5 / 4
	}
	right.arena = slices.Grow(right.arena, size)
	if i >= mid {
		right.arena = append(right.arena, key[:rp]...)
	} else {
		right.arena = n.appendKey(right.arena, k)[:rp]
	}
	right.pre = uint32(rp)
	right.pushKeys(n, k, len(n.slots))
	right.vals = append(right.vals, n.vals[k:]...)
	n.dead += uint32(moved)
	clear(n.vals[k:])
	n.slots, n.vals = n.slots[:k], n.vals[:k]
	lp, extra := n.shared(), 0
	if i < mid {
		lp = min(lp, lcp(key, str(n.appendKey(buf[:0], 0))))
		extra = len(key) - lp
	}
	if !appended || lp != int(n.pre) {
		n.repack(lp, (n.size(lp)+extra)*5/4)
	}
	if i < mid {
		n.insertAt(i, key, val)
	} else {
		right.insertAt(i-mid, key, val)
	}
	right.next, n.next = n.next, right
	return strings.Clone(str(right.appendKey(buf[:0], 0))), right
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
// copies its keys, the prefix of its first and last key once, into an
// arena allocated at their size. Behavior is undefined if
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
	var first []string // each leaf's first key
	for i := 0; i < len(keys); i += buildFill {
		j := min(i+buildFill, len(keys))
		n := newLeaf[V]()
		pre := lcp(str(keys[i]), str(keys[j-1]))
		size := pre
		for _, key := range keys[i:j] {
			size += len(key) - pre
		}
		n.arena = append(slices.Grow(n.arena, size), keys[i][:pre]...)
		n.pre = uint32(pre)
		for _, key := range keys[i:j] {
			n.slots = append(n.slots, span{uint32(len(n.arena)), uint32(len(key) - pre)})
			n.arena = append(n.arena, key[pre:]...)
		}
		n.vals = append(n.vals, vals[i:j]...)
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = n
		}
		leaves, first = append(leaves, n), append(first, string(keys[i]))
	}
	// Interior levels: group children buildFill+1 at a time; the separator
	// before child c is the smallest key in c's subtree. Never leave a
	// trailing group of one child (an interior node needs >= 1 separator),
	// so a would-be singleton steals a child from the previous group.
	level := leaves
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
	var buf [64]byte // a borrowed key, on its way between two arenas
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := n.children[ci-1]
		if last := left.entries() - 1; last >= minLen {
			if child.leaf {
				child.insertAt(0, str(left.appendKey(buf[:0], last)), left.vals[last])
				left.removeAt(last)
				n.keys[ci-1] = strings.Clone(str(child.appendKey(buf[:0], 0)))
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
				child.insertAt(len(child.slots), str(rightSib.appendKey(buf[:0], 0)), rightSib.vals[0])
				rightSib.removeAt(0)
				n.keys[ci] = strings.Clone(str(rightSib.appendKey(buf[:0], 0)))
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
		left.reserve(len(right.arena) - int(right.dead))
		var buf [64]byte
		for j := range right.slots {
			left.insertAt(len(left.slots), str(right.appendKey(buf[:0], j)), right.vals[j])
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
// largest. fn returning false stops the scan. key is materialized into a
// buffer the scan reuses, the tree's own unless another scan holds it: it
// is valid until fn returns, and fn must not write to it.
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
	buf := t.keyBuf.Swap(nil)
	if buf == nil {
		buf = new([]byte)
	}
	key := *buf
	defer func() { *buf = key[:0]; t.keyBuf.Store(buf) }()
	for ; n != nil; n, i = n.next, 0 {
		key = append(key[:0], n.prefix()...)
		for ; i < len(n.slots); i++ {
			key = append(key[:n.pre], n.suffix(i)...)
			if end != nil && str(key) >= hi {
				return
			}
			if !fn(key[:len(key):len(key)], n.vals[i]) {
				return
			}
		}
	}
}

// Ascend scans all entries in key order, under AscendRange's contract.
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
// They are views of separators, which never change.
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

// Max returns a copy of the largest key.
func (t *Tree[V]) Max() ([]byte, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.slots) == 0 {
		return nil, false
	}
	last := len(n.slots) - 1
	return n.appendKey(make([]byte, 0, int(n.pre+n.slots[last].n)), last), true
}

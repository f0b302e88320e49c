package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"sqlledger/internal/sqltypes"
)

// checkTree fails t unless tr is a well-formed B+tree holding exactly
// model: keys in order, every leaf at one depth and linked to the next,
// separators bounding their subtrees, Len right, no node holding more than
// its slices were allocated for or less than minLen entries (the root and
// the rightmost path excepted), and no vacated slot still holding a key,
// value or child. Every leaf's prefix is the common prefix of its first
// and last key, its spans lie inside its arena after the prefix without
// overlapping and cover all of it but the prefix and its dead bytes, and
// no separator shares memory with a leaf's arena.
func checkTree(t *testing.T, tr *Tree[int], model map[string]int) {
	t.Helper()
	var leaves []*node[int]
	var seps []string
	leafDepth := -1
	// lo and hi bound a subtree's keys; nil is no bound.
	var walk func(n *node[int], depth int, lo, hi *string, rightmost bool)
	walk = func(n *node[int], depth int, lo, hi *string, rightmost bool) {
		if cap(n.keys) > degree+1 || cap(n.slots) > degree+1 || cap(n.vals) > degree+1 || cap(n.children) > degree+2 || n.entries() > degree {
			t.Fatalf("node at depth %d holds %d keys in slices of capacity %d/%d/%d/%d", depth, n.entries(), cap(n.keys), cap(n.slots), cap(n.vals), cap(n.children))
		}
		if n != tr.root && !rightmost && n.entries() < minLen {
			t.Fatalf("node at depth %d holds %d keys, below minLen off the rightmost path", depth, n.entries())
		}
		keys := n.keys
		if n.leaf {
			keys = make([]string, len(n.slots))
			for i := range keys {
				keys[i] = string(n.appendKey(nil, i))
				if !strings.HasPrefix(keys[i], n.prefix()) {
					t.Fatalf("leaf key %x does not start with the leaf's prefix %x", keys[i], n.prefix())
				}
			}
			want := 0
			if len(keys) > 0 {
				want = lcp(keys[0], keys[len(keys)-1])
			}
			if int(n.pre) != want {
				t.Fatalf("leaf prefix %x of %d keys, not the common prefix of its first and last", n.prefix(), len(keys))
			}
		}
		for i, k := range keys {
			if i > 0 && keys[i-1] >= k {
				t.Fatalf("keys out of order at depth %d: %x then %x", depth, keys[i-1], k)
			}
			if (lo != nil && k < *lo) || (hi != nil && k >= *hi) {
				t.Fatalf("key %x at depth %d outside its separators", k, depth)
			}
		}
		if n.leaf {
			if leafDepth >= 0 && depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
			if len(n.vals) != len(n.slots) || n.children != nil || n.keys != nil {
				t.Fatalf("leaf with %d spans, %d values, %d children, %d separators", len(n.slots), len(n.vals), len(n.children), len(n.keys))
			}
			for _, v := range n.vals[len(n.vals):cap(n.vals)] {
				if v != 0 {
					t.Fatalf("vacated value slot holds %d", v)
				}
			}
			checkArena(t, n)
			leaves = append(leaves, n)
			return
		}
		for _, k := range n.keys[len(n.keys):cap(n.keys)] {
			if unsafe.StringData(k) != nil {
				t.Fatalf("vacated separator slot at depth %d holds %x", depth, k)
			}
		}
		if len(n.keys) == 0 || len(n.children) != len(n.keys)+1 || n.vals != nil || n.slots != nil || n.arena != nil {
			t.Fatalf("interior node with %d keys, %d children, %d values, %d spans", len(n.keys), len(n.children), len(n.vals), len(n.slots))
		}
		seps = append(seps, n.keys...)
		for _, c := range n.children[len(n.children):cap(n.children)] {
			if c != nil {
				t.Fatal("vacated child slot still points at a node")
			}
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			walk(c, depth+1, clo, chi, rightmost && i == len(n.keys))
		}
	}
	walk(tr.root, 0, nil, nil, true)
	for _, sep := range seps {
		p := uintptr(unsafe.Pointer(unsafe.StringData(sep)))
		for _, l := range leaves {
			base := uintptr(unsafe.Pointer(unsafe.SliceData(l.arena)))
			if len(sep) > 0 && cap(l.arena) > 0 && p >= base && p < base+uintptr(cap(l.arena)) {
				t.Fatalf("separator %x points into a leaf's arena", sep)
			}
		}
	}
	for i, l := range leaves {
		var want *node[int]
		if i+1 < len(leaves) {
			want = leaves[i+1]
		}
		if l.next != want {
			t.Fatalf("leaf %d of %d is not linked to the next", i, len(leaves))
		}
	}

	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", tr.Len(), len(model))
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	i := 0
	tr.Ascend(func(k []byte, v int) bool {
		if i >= len(keys) || string(k) != keys[i] || v != model[keys[i]] {
			t.Fatalf("entry %d is (%x, %d); the model disagrees", i, k, v)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("Ascend visited %d entries, model holds %d", i, len(keys))
	}
	for k, v := range model {
		if got, ok := tr.Get([]byte(k)); !ok || got != v {
			t.Fatalf("Get(%x) = (%d, %v), want %d", k, got, ok, v)
		}
	}
}

// checkArena fails t unless every span of the leaf n lies inside its
// arena after the prefix, no two overlap, and the arena's length less its
// dead bytes is the prefix's length and the sum of the spans' lengths.
func checkArena(t *testing.T, n *node[int]) {
	t.Helper()
	spans := slices.Clone(n.slots)
	slices.SortFunc(spans, func(a, b span) int { return int(a.off) - int(b.off) })
	live, end := int(n.pre), int(n.pre) // end: where the prefix and the spans so far end, at the furthest
	for _, s := range spans {
		if int(s.off)+int(s.n) > len(n.arena) {
			t.Fatalf("span [%d, +%d) runs past the arena's %d bytes", s.off, s.n, len(n.arena))
		}
		if s.n > 0 && int(s.off) < end {
			t.Fatalf("span [%d, +%d) overlaps one ending at %d", s.off, s.n, end)
		}
		live, end = live+int(s.n), max(end, int(s.off+s.n))
	}
	if len(n.arena)-int(n.dead) != live {
		t.Fatalf("arena of %d bytes, %d dead, holds spans of %d", len(n.arena), n.dead, live)
	}
}

// FuzzTree decodes its input into runs of operations — ascending, nearly
// ascending, descending and random Puts and GetOrPuts, ascending and random
// Deletes, outliers that are put and mostly deleted again, and BuildSorted
// reloads of the whole contents — checks every operation's result against
// a map as it goes, and the whole tree with checkTree after every run. Each
// run is five bytes: the operation and the key shape, a 16-bit length and a
// 16-bit starting key (the random runs' seed). A run's keys are 4-byte
// integers, or composite keys of 2 to 5 encoded BIGINTs shaped like
// tpcc's order-line keys, whose leaves share long prefixes that runs break
// and regrow.
func FuzzTree(f *testing.F) {
	const keySpace = 1<<16 + 8192 // the random runs' keys overlap the ascending ones
	run := func(op byte, n, start uint16) []byte {
		return []byte{op, byte(n >> 8), byte(n), byte(start >> 8), byte(start)}
	}
	f.Add(run(0, 5000, 0))
	f.Add(slices.Concat(run(1, 5000, 9000), run(3, 4000, 4500)))
	f.Add(slices.Concat(run(2, 3000, 7), run(4, 2500, 8), run(0, 300, 60000)))
	f.Add(slices.Concat(run(5, 4500, 0), run(0, 200, 4500), run(2, 500, 3), run(4, 4000, 4)))
	f.Add(slices.Concat(run(0, 4200, 0), run(3, 4100, 50), run(1, 100, 30)))
	f.Add(slices.Concat(run(6, 6000, 0), run(4, 3000, 9), run(6, 2000, 5000)))
	f.Add(slices.Concat(run(3<<3, 6000, 0), run(7|3<<3, 3000, 17), run(6|3<<3, 2000, 6000), run(3|3<<3, 2500, 100)))
	f.Add(slices.Concat(run(2|1<<3, 4000, 1), run(7|1<<3, 2000, 2), run(4|1<<3, 3000, 3)))
	f.Add(slices.Concat(run(5|4<<3, 3000, 60000), run(7|4<<3, 2500, 5), run(1|2<<3, 2000, 500), run(0, 300, 7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New[int]()
		model := make(map[string]int)
		var key func(k uint32) []byte
		put := func(k []byte, v int, replace bool) {
			var old int
			var found bool
			if replace {
				old, found = tr.Put(k, v)
			} else {
				old, found = tr.GetOrPut(k, v)
			}
			want, inModel := model[string(k)]
			if found != inModel || (found && old != want) {
				t.Fatalf("put %x found (%d, %v), model (%d, %v)", k, old, found, want, inModel)
			}
			if replace || !found {
				model[string(k)] = v
			}
		}
		del := func(k []byte) {
			old, found := tr.Delete(k)
			want, inModel := model[string(k)]
			if found != inModel || old != want {
				t.Fatalf("delete %x found (%d, %v), model (%d, %v)", k, old, found, want, inModel)
			}
			delete(model, string(k))
		}
		for v := 1; len(data) >= 5; v++ {
			op, parts := data[0]%8, int(data[0]/8%5)+1
			key = func(k uint32) []byte { return binary.BigEndian.AppendUint32(nil, k) }
			if parts > 1 {
				key = func(k uint32) []byte { return compositeKey(k, parts) }
			}
			n := uint32(binary.BigEndian.Uint16(data[1:])) % 8192
			start := uint32(binary.BigEndian.Uint16(data[3:]))
			data = data[5:]
			rng := rand.New(rand.NewSource(int64(start)))
			switch op {
			case 0: // ascending, the append order of heaps and history tables
				for i := uint32(0); i < n; i++ {
					put(key(start+i), v, i%2 == 0)
				}
			case 1: // descending
				for i := uint32(0); i < n; i++ {
					put(key(start+n-i), v, true)
				}
			case 2: // random
				for i := uint32(0); i < n; i++ {
					put(key(uint32(rng.Intn(keySpace))), v, rng.Intn(2) == 0)
				}
			case 3: // ascending deletes
				for i := uint32(0); i < n; i++ {
					del(key(start + i))
				}
			case 4: // random deletes
				for i := uint32(0); i < n; i++ {
					del(key(uint32(rng.Intn(keySpace))))
				}
			case 5: // add an ascending run to the contents and bulk-load them all
				for i := uint32(0); i < n; i++ {
					model[string(key(start+i))] = v
				}
				keys := make([][]byte, 0, len(model))
				for k := range model {
					keys = append(keys, []byte(k))
				}
				slices.SortFunc(keys, bytes.Compare)
				vals := make([]int, len(keys))
				for i, k := range keys {
					vals[i] = model[string(k)]
				}
				tr = BuildSorted(keys, vals)
			case 6: // ascending, shuffled within runs of 8: commits reaching ascending keys out of order
				var perm []int
				for i := uint32(0); i < n; i++ {
					if i%8 == 0 {
						perm = rng.Perm(8)
					}
					put(key(start+i-i%8+uint32(perm[i%8])), v, true)
				}
			case 7: // outliers: each lands at some leaf's edge and shortens its prefix; deleting it regrows it
				for i := uint32(0); i < n; i++ {
					k := key((start + i*4099) % keySpace)
					put(k, v, true)
					if i%4 != 0 {
						del(k)
					}
				}
			}
			checkTree(t, tr, model)
		}
	})
}

// compositeKey encodes k as parts BIGINT components, the way an order-line
// key is (warehouse, district, order, line): each but the first holds one
// of k's low base-16 digits, from -8, and the first the rest, so ascending
// k gives ascending keys.
func compositeKey(k uint32, parts int) []byte {
	vals := make([]sqltypes.Value, parts)
	for i := parts - 1; i > 0; i-- {
		vals[i] = sqltypes.NewBigInt(int64(k%16) - 8)
		k /= 16
	}
	vals[0] = sqltypes.NewBigInt(int64(k))
	return sqltypes.EncodeKey(nil, vals...)
}

// TestAppendOrderFillsLeaves pins the append split: keys inserted in
// ascending order leave every leaf but the last one full, however many
// levels the tree grows, nearly ascending keys leave them nearly full, and
// descending ones still split in the middle.
func TestAppendOrderFillsLeaves(t *testing.T) {
	fill := func(tr *Tree[int]) (full, total int) {
		n := tr.root
		for !n.leaf {
			n = n.children[0]
		}
		for ; n != nil; n = n.next {
			total++
			if len(n.slots) == degree {
				full++
			}
		}
		return full, total
	}
	const n = 300_000 // three levels of interior nodes
	asc, desc := New[int](), New[int]()
	for i := 0; i < n; i++ {
		asc.Put(key(i), i)
		desc.Put(key(n-1-i), i)
	}
	h := 0
	for n := asc.root; !n.leaf; n = n.children[0] {
		h++
	}
	if h < 3 {
		t.Fatalf("height %d: the test does not reach an interior split above the first level", h)
	}
	checkTree(t, asc, contents(asc))
	if full, total := fill(asc); full != total-1 {
		t.Errorf("ascending inserts: %d of %d leaves full, want all but the last", full, total)
	}
	if full, total := fill(desc); full > 1 || total < n/(degree/2+1) {
		t.Errorf("descending inserts: %d of %d leaves full, want middle splits", full, total)
	}
	// Ascending keys that arrive shuffled within runs of 8, as commits reach
	// them out of order, fill leaves to 43 entries: the left half of a split
	// below the largest key later splits in the middle if the keys it still
	// lacks overflow it. Splitting the rightmost leaf in the middle unless
	// the insert is an append would leave 32.
	near := New[int]()
	rng := rand.New(rand.NewSource(1))
	var perm []int
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			perm = rng.Perm(8)
		}
		near.Put(key(i-i%8+perm[i%8]), i)
	}
	checkTree(t, near, contents(near))
	if _, total := fill(near); n/total < 42 {
		t.Errorf("nearly ascending inserts: %d leaves, %d entries each, want at least 42", total, n/total)
	}
	// Parallel scans still split the ascending tree evenly, though its
	// rightmost path is thin.
	for _, shards := range []int{2, 3, 8} {
		bounds := append(asc.ShardBoundaries(shards), nil)
		var start []byte
		for _, end := range bounds {
			rows := 0
			asc.AscendRange(start, end, func([]byte, int) bool { rows++; return true })
			if want := n / shards; rows < want*9/10 || rows > want*11/10 {
				t.Errorf("%d shards: a range of %d rows, want %d ± 10 %%", shards, rows, want)
			}
			start = end
		}
	}
}

// contents returns tr's entries as a model, for a check of its structure
// alone.
func contents(tr *Tree[int]) map[string]int {
	m := make(map[string]int, tr.Len())
	tr.Ascend(func(k []byte, v int) bool {
		m[string(k)] = v
		return true
	})
	return m
}

package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// TestKeyViewsNeverChange: Put, GetOrPut and BuildSorted copy the keys
// they store, so a caller may overwrite its buffer at once; a key a scan
// hands to its callback is the entry's whole key, in a buffer outside every
// arena and capped at its length, while the callback runs; and a key Max
// returns (a copy) or ShardBoundaries hands out (a view of a separator)
// reads the same bytes however the tree changes after: appends that split
// at the end, inserts that split in the middle and overflow an arena,
// outliers that shorten a leaf's prefix and deletes that regrow it, deletes
// that leave an arena half dead, borrows and merges.
func TestKeyViewsNeverChange(t *testing.T) {
	// Keys of 12 to 18 bytes, so arenas fill unevenly; a negative i's sorts
	// before them all.
	varKey := func(i int) []byte {
		if i < 0 {
			return []byte(fmt.Sprintf("kex-%08d", -i))
		}
		return append(key(i), bytes.Repeat([]byte{'x'}, i%7)...)
	}
	type kept struct {
		view []byte
		want string
	}
	var views []kept
	keep := func(v []byte) { views = append(views, kept{v, string(v)}) }
	tr := New[int]()
	model := make(map[string]int)
	buf := make([]byte, 0, 32)
	put := func(i int) {
		buf = append(buf[:0], varKey(i)...)
		if i%2 == 0 {
			tr.Put(buf, i)
		} else {
			tr.GetOrPut(buf, i)
		}
		model[string(buf)] = i
		clear(buf[:cap(buf)])
	}
	del := func(i int) {
		tr.Delete(varKey(i))
		delete(model, string(varKey(i)))
	}
	// inArena reports whether b lies in a leaf's arena.
	inArena := func(b []byte) bool {
		n := tr.root
		for !n.leaf {
			n = n.children[0]
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		for ; n != nil; n = n.next {
			base := uintptr(unsafe.Pointer(unsafe.SliceData(n.arena)))
			if cap(n.arena) > 0 && p >= base && p < base+uintptr(cap(n.arena)) {
				return true
			}
		}
		return false
	}
	checkScans := func() {
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		i := 0
		tr.Ascend(func(k []byte, _ int) bool {
			if i >= len(want) || string(k) != want[i] || cap(k) != len(k) || inArena(k) {
				t.Fatalf("scan entry %d is %q (cap %d, in an arena %v), want %q", i, k, cap(k), inArena(k), want[min(i, len(want)-1)])
			}
			i++
			return true
		})
		if len(want) > 2 {
			lo, hi := want[len(want)/3], want[2*len(want)/3]
			i = len(want) / 3
			tr.AscendRange([]byte(lo), []byte(hi), func(k []byte, _ int) bool {
				if string(k) != want[i] || cap(k) != len(k) {
					t.Fatalf("range entry %d is %q (cap %d), want %q", i, k, cap(k), want[i])
				}
				i++
				return true
			})
			if i != 2*len(want)/3 {
				t.Fatalf("range [%q, %q) ended at entry %d", lo, hi, i)
			}
		}
		if k, ok := tr.Max(); ok {
			if string(k) != want[len(want)-1] || inArena(k) {
				t.Fatalf("Max is %q (in an arena %v), want %q", k, inArena(k), want[len(want)-1])
			}
			keep(k)
		}
		for _, b := range tr.ShardBoundaries(8) {
			keep(b)
		}
	}
	phases := []func(){
		func() { // ascending: append splits
			for i := 0; i < 2000; i += 2 {
				put(i)
			}
		},
		func() { // between them, at random: middle splits and arena overflows
			for _, i := range rand.New(rand.NewSource(1)).Perm(1000) {
				put(2*i + 1)
			}
		},
		func() { // outliers far above and below: prefixes shorten, then regrow
			for i := 0; i < 2000; i += 37 {
				put(1_000_000 + i)
				put(-1 - i)
				del(1_000_000 + i)
			}
			for i := 0; i < 2000; i += 74 {
				del(-1 - i)
			}
		},
		func() { // every third key: half-dead arenas repack
			for i := 0; i < 2000; i += 3 {
				del(i)
			}
		},
		func() { // runs of keys: borrows and merges
			for i := 0; i < 2000; i++ {
				if i%400 < 250 {
					del(i)
				}
			}
		},
		func() { // refill what the deletes emptied, past the end too
			for i := 0; i < 4000; i += 2 {
				put(i)
			}
		},
		func() { // bulk load from buffers overwritten after
			ks := make([][]byte, 0, len(model))
			for k := range model {
				ks = append(ks, []byte(k))
			}
			sort.Slice(ks, func(a, b int) bool { return bytes.Compare(ks[a], ks[b]) < 0 })
			vals := make([]int, len(ks))
			for i, k := range ks {
				vals[i] = model[string(k)]
			}
			tr = BuildSorted(ks, vals)
			for _, k := range ks {
				clear(k)
			}
		},
		func() { // and change the bulk-loaded tree
			for i := 1; i < 4000; i += 4 {
				put(i)
				del(i - 1)
			}
		},
	}
	for p, phase := range phases {
		phase()
		checkTree(t, tr, model)
		checkScans()
		for _, v := range views {
			if string(v.view) != v.want {
				t.Fatalf("after phase %d a kept key reads %q, was %q", p, v.view, v.want)
			}
		}
	}
}

// TestConcurrentScans: scans that run at once take turns to hold the
// tree's key buffer, so each reads its own keys (run it under -race).
func TestConcurrentScans(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 5000; i++ {
		tr.Put(key(i), i)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				i := 0
				tr.Ascend(func(k []byte, v int) bool {
					if v != i || string(k) != string(key(i)) {
						t.Errorf("scan entry %d is (%q, %d)", i, k, v)
						return false
					}
					i++
					return true
				})
			}
		}()
	}
	wg.Wait()
}

func TestBasicCRUD(t *testing.T) {
	tr := New[int]()
	if _, ok := tr.Get([]byte("a")); ok {
		t.Fatal("empty tree returned a value")
	}
	if _, replaced := tr.Put([]byte("a"), 1); replaced {
		t.Fatal("fresh put reported replace")
	}
	if old, replaced := tr.Put([]byte("a"), 2); !replaced || old != 1 {
		t.Fatalf("replace returned (%d,%v)", old, replaced)
	}
	if v, ok := tr.Get([]byte("a")); !ok || v != 2 {
		t.Fatalf("get = (%d,%v)", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	if old, ok := tr.Delete([]byte("a")); !ok || old != 2 {
		t.Fatalf("delete = (%d,%v)", old, ok)
	}
	if _, ok := tr.Delete([]byte("a")); ok {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 0 {
		t.Fatalf("len after delete = %d", tr.Len())
	}
}

func TestLargeSequentialAndReverse(t *testing.T) {
	for _, reverse := range []bool{false, true} {
		tr := New[int]()
		n := 10000
		for i := 0; i < n; i++ {
			k := i
			if reverse {
				k = n - 1 - i
			}
			tr.Put(key(k), k)
		}
		if tr.Len() != n {
			t.Fatalf("len = %d, want %d", tr.Len(), n)
		}
		for i := 0; i < n; i++ {
			if v, ok := tr.Get(key(i)); !ok || v != i {
				t.Fatalf("get(%d) = (%d,%v)", i, v, ok)
			}
		}
		// Ordered iteration.
		i := 0
		tr.Ascend(func(k []byte, v int) bool {
			if !bytes.Equal(k, key(i)) || v != i {
				t.Fatalf("iteration out of order at %d: %s", i, k)
			}
			i++
			return true
		})
		if i != n {
			t.Fatalf("iterated %d of %d", i, n)
		}
	}
}

func TestDeleteEverythingInRandomOrder(t *testing.T) {
	tr := New[int]()
	n := 5000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for i := 0; i < n; i++ {
		tr.Put(key(i), i)
	}
	for _, i := range perm {
		if _, ok := tr.Delete(key(i)); !ok {
			t.Fatalf("delete(%d) failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d after deleting all", tr.Len())
	}
	count := 0
	tr.Ascend(func([]byte, int) bool { count++; return true })
	if count != 0 {
		t.Fatalf("iterated %d entries in empty tree", count)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), i)
	}
	var got []int
	tr.AscendRange(key(10), key(20), func(_ []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop.
	got = got[:0]
	tr.AscendRange(key(0), nil, func(_ []byte, v int) bool {
		got = append(got, v)
		return v < 4
	})
	if len(got) != 5 {
		t.Fatalf("early stop scan = %v", got)
	}
	// Range start not present.
	got = got[:0]
	tr.AscendRange([]byte("key-00000010x"), key(13), func(_ []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 2 || got[0] != 11 {
		t.Fatalf("mid-start scan = %v", got)
	}
}

func TestMax(t *testing.T) {
	tr := New[int]()
	if _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree")
	}
	for i := 5; i < 500; i++ {
		tr.Put(key(i), i)
	}
	if k, ok := tr.Max(); !ok || !bytes.Equal(k, key(499)) {
		t.Fatalf("Max = %s,%v", k, ok)
	}
}

// TestAgainstModel drives random operations against a map+sorted-slice
// model and checks full equivalence after every batch.
func TestAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New[int]()
	model := make(map[string]int)
	for round := 0; round < 200; round++ {
		for op := 0; op < 100; op++ {
			k := key(rng.Intn(800))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Int()
				_, replaced := tr.Put(k, v)
				if _, inModel := model[string(k)]; inModel != replaced {
					t.Fatalf("replace mismatch for %s", k)
				}
				model[string(k)] = v
			case 2:
				_, ok := tr.Delete(k)
				if _, inModel := model[string(k)]; inModel != ok {
					t.Fatalf("delete mismatch for %s", k)
				}
				delete(model, string(k))
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("len %d != model %d", tr.Len(), len(model))
		}
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		tr.Ascend(func(k []byte, v int) bool {
			if string(k) != keys[i] || v != model[keys[i]] {
				t.Fatalf("round %d: entry %d mismatch: %s", round, i, k)
			}
			i++
			return true
		})
		if i != len(keys) {
			t.Fatalf("iterated %d, model has %d", i, len(keys))
		}
	}
}

func TestQuickRandomKeys(t *testing.T) {
	f := func(keys [][]byte) bool {
		tr := New[int]()
		model := make(map[string]int)
		for i, k := range keys {
			tr.Put(append([]byte(nil), k...), i)
			model[string(k)] = i
		}
		if tr.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tr.Get([]byte(k))
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndZeroLengthKeys(t *testing.T) {
	tr := New[string]()
	tr.Put([]byte{}, "empty")
	tr.Put([]byte{0}, "zero")
	if v, ok := tr.Get([]byte{}); !ok || v != "empty" {
		t.Fatal("empty key lookup failed")
	}
	if v, ok := tr.Get([]byte{0}); !ok || v != "zero" {
		t.Fatal("zero-byte key lookup failed")
	}
}

func BenchmarkPut(b *testing.B) {
	tr := New[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Put(key(i), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int]()
	for i := 0; i < 100000; i++ {
		tr.Put(key(i), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % 100000))
	}
}

// TestShardBoundariesPartition is the sharded-scan property test: for any
// tree size and shard count, the boundaries are strictly ascending and the
// union of range scans over the derived ranges reproduces a full serial
// Ascend exactly — no overlap, no gap, no reordering.
func TestShardBoundariesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, 2, 63, 64, 65, 200, 1000, 5000} {
		tr := New[int]()
		perm := rng.Perm(size * 2)
		for i := 0; i < size; i++ {
			tr.Put(key(perm[i]), perm[i])
		}
		var want [][]byte
		tr.Ascend(func(k []byte, _ int) bool {
			want = append(want, bytes.Clone(k)) // k is valid only during the call
			return true
		})
		for _, n := range []int{1, 2, 3, 7, 16, 100} {
			bounds := tr.ShardBoundaries(n)
			if len(bounds) > n-1 && n > 1 {
				t.Fatalf("size=%d n=%d: %d boundaries, want <= %d", size, n, len(bounds), n-1)
			}
			for i := 1; i < len(bounds); i++ {
				if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
					t.Fatalf("size=%d n=%d: boundaries not strictly ascending at %d", size, n, i)
				}
			}
			var got [][]byte
			var start []byte
			scan := func(lo, hi []byte) {
				tr.AscendRange(lo, hi, func(k []byte, _ int) bool {
					got = append(got, bytes.Clone(k))
					return true
				})
			}
			for _, b := range bounds {
				scan(start, b)
				start = b
			}
			scan(start, nil)
			if len(got) != len(want) {
				t.Fatalf("size=%d n=%d: sharded scan saw %d keys, want %d", size, n, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("size=%d n=%d: key %d mismatch: %q != %q", size, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardBoundariesAfterDeletes checks that boundaries remain a valid
// partition when separator keys may no longer exist as entries.
func TestShardBoundariesAfterDeletes(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 2000; i++ {
		tr.Put(key(i), i)
	}
	for i := 0; i < 2000; i += 2 {
		tr.Delete(key(i))
	}
	bounds := tr.ShardBoundaries(8)
	seen := 0
	var start []byte
	scan := func(lo, hi []byte) {
		tr.AscendRange(lo, hi, func([]byte, int) bool {
			seen++
			return true
		})
	}
	for _, b := range bounds {
		scan(start, b)
		start = b
	}
	scan(start, nil)
	if seen != tr.Len() {
		t.Fatalf("sharded scan saw %d keys, want %d", seen, tr.Len())
	}
}

// TestBuildSorted proves bulk loading at awkward sizes produces a tree
// indistinguishable from one built with Put: same entries in order, Get
// hits everything, and subsequent mutations (Put splits, Delete
// rebalances down to empty) behave.
func TestBuildSorted(t *testing.T) {
	sizes := []int{0, 1, 2, buildFill - 1, buildFill, buildFill + 1,
		buildFill*buildFill + 1, 10000, 50001}
	for _, n := range sizes {
		keys := make([][]byte, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i], vals[i] = key(i), i
		}
		tr := BuildSorted(keys, vals)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		i := 0
		tr.Ascend(func(k []byte, v int) bool {
			if !bytes.Equal(k, keys[i]) || v != i {
				t.Fatalf("n=%d: entry %d = (%q,%d)", n, i, k, v)
			}
			i++
			return true
		})
		if i != n {
			t.Fatalf("n=%d: ascend visited %d entries", n, i)
		}
		for _, probe := range []int{0, n / 3, n - 1} {
			if n == 0 {
				break
			}
			if v, ok := tr.Get(key(probe)); !ok || v != probe {
				t.Fatalf("n=%d: Get(%d) = (%d,%v)", n, probe, v, ok)
			}
		}
		// Mutate: interleave new keys (forcing splits), then delete
		// everything (forcing borrows and merges through underfull
		// bulk-loaded nodes).
		if n > 0 && n <= 10000 {
			for j := 0; j < n; j++ {
				tr.Put([]byte(fmt.Sprintf("key-%08d-x", j)), -j)
			}
			if tr.Len() != 2*n {
				t.Fatalf("n=%d: Len after interleave = %d", n, tr.Len())
			}
			perm := rand.New(rand.NewSource(int64(n))).Perm(n)
			for _, j := range perm {
				if _, ok := tr.Delete(key(j)); !ok {
					t.Fatalf("n=%d: delete %d missed", n, j)
				}
				if _, ok := tr.Delete([]byte(fmt.Sprintf("key-%08d-x", j))); !ok {
					t.Fatalf("n=%d: delete %d-x missed", n, j)
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("n=%d: Len after drain = %d", n, tr.Len())
			}
		}
	}
}

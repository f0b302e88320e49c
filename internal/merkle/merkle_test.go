package merkle

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func leaves(n int, seed int64) []Hash {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Hash, n)
	for i := range out {
		rng.Read(out[i][:])
	}
	return out
}

func TestEmptyTreeRoot(t *testing.T) {
	var s Streaming
	if got := s.Root(); !got.IsZero() {
		t.Fatalf("empty tree root = %s, want zero", got)
	}
	if RootOf(nil) != ZeroHash {
		t.Fatalf("RootOf(nil) should be zero")
	}
}

func TestSingleLeafRootIsLeaf(t *testing.T) {
	l := HashLeaf([]byte("x"))
	var s Streaming
	s.Append(l)
	if s.Root() != l {
		t.Fatalf("single-leaf root must be the leaf (promotion rule)")
	}
}

// referenceRoot builds the tree level by level, promoting odd nodes, as
// the paper defines — an independent implementation to check Streaming.
func referenceRoot(ls []Hash) Hash {
	if len(ls) == 0 {
		return ZeroHash
	}
	level := append([]Hash(nil), ls...)
	for len(level) > 1 {
		var next []Hash
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, combine(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}

func TestStreamingMatchesReference(t *testing.T) {
	for n := 0; n <= 70; n++ {
		ls := leaves(n, int64(n))
		var s Streaming
		for _, l := range ls {
			s.Append(l)
		}
		if s.Root() != referenceRoot(ls) {
			t.Fatalf("streaming root mismatch at n=%d", n)
		}
		if s.Count() != uint64(n) {
			t.Fatalf("count = %d, want %d", s.Count(), n)
		}
	}
}

func TestStreamingMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw % 1000)
		ls := leaves(n, seed)
		var s Streaming
		for _, l := range ls {
			s.Append(l)
		}
		return s.Root() == referenceRoot(ls) && RootOf(ls) == s.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRootIsIncrementalNotConsuming(t *testing.T) {
	ls := leaves(10, 1)
	var s Streaming
	for i, l := range ls {
		s.Append(l)
		if got, want := s.Root(), referenceRoot(ls[:i+1]); got != want {
			t.Fatalf("root after %d appends = %s, want %s", i+1, got, want)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	ls := leaves(37, 2)
	var s Streaming
	for _, l := range ls[:20] {
		s.Append(l)
	}
	snap := s.Snapshot()
	rootAt20 := s.Root()
	for _, l := range ls[20:] {
		s.Append(l)
	}
	if s.Root() == rootAt20 {
		t.Fatalf("root should change after more appends")
	}
	s.Restore(snap)
	if s.Root() != rootAt20 || s.Count() != 20 {
		t.Fatalf("restore did not bring back the snapshot state")
	}
	// Appending after restore must behave as if the later leaves never
	// happened.
	s.Append(ls[20])
	if s.Root() != referenceRoot(ls[:21]) {
		t.Fatalf("appends after restore diverge from reference")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	var s Streaming
	s.Append(HashLeaf([]byte("a")))
	snap := s.Snapshot()
	s.Append(HashLeaf([]byte("b")))
	var s2 Streaming
	s2.Restore(snap)
	if s2.Count() != 1 {
		t.Fatalf("snapshot mutated by later appends")
	}
}

func TestNestedSavepointPattern(t *testing.T) {
	ls := leaves(9, 3)
	var s Streaming
	s.Append(ls[0])
	sp1 := s.Snapshot()
	s.Append(ls[1])
	sp2 := s.Snapshot()
	s.Append(ls[2])
	s.Restore(sp2)
	s.Append(ls[3])
	s.Restore(sp1)
	s.Append(ls[4])
	if s.Root() != referenceRoot([]Hash{ls[0], ls[4]}) {
		t.Fatalf("nested savepoint rollback produced wrong tree")
	}
}

func TestReset(t *testing.T) {
	var s Streaming
	s.Append(HashLeaf([]byte("a")))
	s.Reset()
	if s.Count() != 0 || !s.Root().IsZero() {
		t.Fatalf("reset did not clear the tree")
	}
}

func TestProofAllPositions(t *testing.T) {
	for n := 1; n <= 33; n++ {
		ls := leaves(n, int64(100+n))
		root := RootOf(ls)
		for i := 0; i < n; i++ {
			p, err := BuildProof(ls, uint64(i))
			if err != nil {
				t.Fatalf("BuildProof(n=%d,i=%d): %v", n, i, err)
			}
			if !p.Verify(root, ls[i]) {
				t.Fatalf("proof failed for n=%d i=%d", n, i)
			}
		}
	}
}

func TestProofRejectsWrongLeaf(t *testing.T) {
	ls := leaves(17, 5)
	root := RootOf(ls)
	p, _ := BuildProof(ls, 4)
	if p.Verify(root, ls[5]) {
		t.Fatalf("proof verified a different leaf")
	}
	var bad Hash
	if p.Verify(root, bad) {
		t.Fatalf("proof verified a zero leaf")
	}
}

func TestProofRejectsWrongRoot(t *testing.T) {
	ls := leaves(9, 6)
	p, _ := BuildProof(ls, 2)
	other := RootOf(leaves(9, 7))
	if p.Verify(other, ls[2]) {
		t.Fatalf("proof verified against a different root")
	}
}

func TestProofRejectsTamperedSiblings(t *testing.T) {
	ls := leaves(12, 8)
	root := RootOf(ls)
	p, _ := BuildProof(ls, 3)
	if len(p.Siblings) == 0 {
		t.Fatalf("expected siblings")
	}
	p.Siblings[0][0] ^= 0xFF
	if p.Verify(root, ls[3]) {
		t.Fatalf("proof verified with a corrupted sibling")
	}
}

func TestProofOutOfRange(t *testing.T) {
	ls := leaves(3, 9)
	if _, err := BuildProof(ls, 3); err == nil {
		t.Fatalf("expected error for out-of-range index")
	}
	p := Proof{Index: 5, LeafCount: 3}
	if p.Verify(RootOf(ls), ls[0]) {
		t.Fatalf("out-of-range proof must not verify")
	}
}

func TestProofQuick(t *testing.T) {
	f := func(seed int64, nRaw, iRaw uint16) bool {
		n := int(nRaw%500) + 1
		i := uint64(iRaw) % uint64(n)
		ls := leaves(n, seed)
		p, err := BuildProof(ls, i)
		if err != nil {
			return false
		}
		return p.Verify(RootOf(ls), ls[i])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParseHash(t *testing.T) {
	h := HashLeaf([]byte("hello"))
	got, err := ParseHash(h.String())
	if err != nil || got != h {
		t.Fatalf("ParseHash roundtrip failed: %v", err)
	}
	if _, err := ParseHash("zz"); err == nil {
		t.Fatalf("expected error for bad hex")
	}
	if _, err := ParseHash("abcd"); err == nil {
		t.Fatalf("expected error for short hash")
	}
}

func BenchmarkStreamingAppend(b *testing.B) {
	l := HashLeaf([]byte("leaf"))
	var s Streaming
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Append(l)
	}
}

// --- Accumulator (order-independent multiset, mergeable) -------------------

func TestAccumulatorOrderIndependent(t *testing.T) {
	hashes := make([]Hash, 50)
	for i := range hashes {
		hashes[i] = HashLeaf([]byte{byte(i), byte(i >> 8)})
	}
	var fwd, rev Accumulator
	for _, h := range hashes {
		fwd.Add(h)
	}
	for i := len(hashes) - 1; i >= 0; i-- {
		rev.Add(hashes[i])
	}
	if !fwd.Equal(rev) {
		t.Fatal("accumulator depends on insertion order")
	}
	if fwd.Count() != 50 {
		t.Fatalf("count = %d", fwd.Count())
	}
}

func TestAccumulatorMergeEquivalentToAdds(t *testing.T) {
	var whole Accumulator
	parts := make([]Accumulator, 4)
	for i := 0; i < 100; i++ {
		h := HashLeaf([]byte{byte(i)})
		whole.Add(h)
		parts[i%4].Add(h)
	}
	var merged Accumulator
	for _, p := range parts {
		merged.Merge(p)
	}
	if !merged.Equal(whole) {
		t.Fatal("merge of shard accumulators != single accumulator")
	}
}

func TestAccumulatorDetectsDifferences(t *testing.T) {
	var a, b Accumulator
	a.Add(HashLeaf([]byte("x")))
	b.Add(HashLeaf([]byte("y")))
	if a.Equal(b) {
		t.Fatal("different sets compare equal")
	}
	// Same sum, different count must not compare equal.
	var empty, twice Accumulator
	twice.Add(ZeroHash)
	twice.Add(ZeroHash)
	if empty.Sum() != twice.Sum() {
		t.Fatal("zero hashes should sum to zero")
	}
	if empty.Equal(twice) {
		t.Fatal("count mismatch not detected")
	}
	// A duplicated element must not cancel out (unlike XOR).
	var one, three Accumulator
	h := HashLeaf([]byte("dup"))
	one.Add(h)
	three.Add(h)
	three.Add(h)
	three.Add(h)
	if one.Sum() == three.Sum() {
		t.Fatal("duplicate additions cancelled")
	}
}

func TestAccumulatorCarryPropagation(t *testing.T) {
	var all1 Hash
	for i := range all1 {
		all1[i] = 0xFF
	}
	var a Accumulator
	a.Add(all1)
	a.Add(all1) // 2*(2^256-1) mod 2^256 = 2^256-2: ...FFFE
	sum := a.Sum()
	for i := 0; i < len(sum)-1; i++ {
		if sum[i] != 0xFF {
			t.Fatalf("byte %d = %x, want ff", i, sum[i])
		}
	}
	if sum[len(sum)-1] != 0xFE {
		t.Fatalf("last byte = %x, want fe", sum[len(sum)-1])
	}
}

func TestStreamingPoolReuse(t *testing.T) {
	s := GetStreaming()
	if s.Count() != 0 || !s.Root().IsZero() {
		t.Fatal("pooled Streaming not empty")
	}
	leaves := []Hash{HashLeaf([]byte("a")), HashLeaf([]byte("b")), HashLeaf([]byte("c"))}
	for _, l := range leaves {
		s.Append(l)
	}
	want := RootOf(leaves)
	if s.Root() != want {
		t.Fatal("pooled Streaming computes wrong root")
	}
	PutStreaming(s)
	// A recycled tree must behave exactly like a fresh one.
	s2 := GetStreaming()
	if s2.Count() != 0 || !s2.Root().IsZero() {
		t.Fatal("recycled Streaming not reset")
	}
	for _, l := range leaves {
		s2.Append(l)
	}
	if s2.Root() != want {
		t.Fatal("recycled Streaming computes wrong root")
	}
	PutStreaming(s2)
}

// TestBuildProofsMatchesBuildProof: the batched construction must produce
// byte-identical proofs to the one-at-a-time construction, for every
// index, at every tree size including promotion-heavy ones.
func TestBuildProofsMatchesBuildProof(t *testing.T) {
	for n := 1; n <= 33; n++ {
		ls := leaves(n, int64(300+n))
		root := RootOf(ls)
		indices := make([]uint64, n)
		for i := range indices {
			indices[i] = uint64(i)
		}
		got, ps, err := BuildProofs(ls, indices)
		if err != nil {
			t.Fatalf("BuildProofs(n=%d): %v", n, err)
		}
		if got != root {
			t.Fatalf("n=%d: BuildProofs root %s, RootOf %s", n, got, root)
		}
		for i, p := range ps {
			want, _ := BuildProof(ls, uint64(i))
			if p.Index != want.Index || p.LeafCount != want.LeafCount || len(p.Siblings) != len(want.Siblings) {
				t.Fatalf("n=%d i=%d: batched proof shape differs", n, i)
			}
			for j := range p.Siblings {
				if p.Siblings[j] != want.Siblings[j] {
					t.Fatalf("n=%d i=%d: sibling %d differs", n, i, j)
				}
			}
			if !p.Verify(root, ls[i]) {
				t.Fatalf("n=%d i=%d: batched proof does not verify", n, i)
			}
		}
	}
}

// TestBuildProofsDuplicateAndUnordered: indices may repeat and arrive in
// any order; out-of-range indices fail the whole batch.
func TestBuildProofsDuplicateAndUnordered(t *testing.T) {
	ls := leaves(11, 42)
	root := RootOf(ls)
	_, ps, err := BuildProofs(ls, []uint64{7, 0, 7, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range []uint64{7, 0, 7, 10} {
		if ps[i].Index != idx || !ps[i].Verify(root, ls[idx]) {
			t.Fatalf("proof %d (leaf %d) does not verify", i, idx)
		}
	}
	if _, _, err := BuildProofs(ls, []uint64{0, 11}); err == nil {
		t.Fatal("expected error for out-of-range index in batch")
	}
}

// TestBuildProofsAtMatchesBuildProofs: proofs assembled from a kept level
// k and the leaves of each proof's run are BuildProofs' proofs, byte for
// byte, at every tree size around the run boundaries — the last run
// partial or whole — and every k, and reach the same root.
func TestBuildProofsAtMatchesBuildProofs(t *testing.T) {
	for n := 1; n <= 70; n++ {
		ls := leaves(n, int64(900+n))
		all := make([]uint64, n)
		for i := range all {
			all[i] = uint64(i)
		}
		wantRoot, want, err := BuildProofs(ls, all)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint(0); k <= 5; k++ {
			root, got, err := BuildProofsAt(ls, LevelOf(ls, k), k, all)
			if err != nil || root != wantRoot || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: root %s (want %s), same proofs %v, err %v", n, k, root, wantRoot, reflect.DeepEqual(got, want), err)
			}
		}
	}
	ls := leaves(20, 1)
	if _, _, err := BuildProofsAt(ls, LevelOf(ls, 4), 4, []uint64{20}); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
}

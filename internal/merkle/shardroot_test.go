package merkle

import (
	"fmt"
	"reflect"
	"testing"
)

// Shard-root-scale proof tests: the sharded ledger's super-block builds a
// tree over N shard-head hashes where N is tiny (1, 2, 4, ...), so the
// degenerate tree shapes — single leaf, one combine, promotion of an odd
// leaf — are exactly the shapes auditors verify shard proofs against.

func shardLeaf(i int) Hash { return HashLeaf([]byte(fmt.Sprintf("shard-head-%d", i))) }

// TestProofSingleLeafTree: a 1-shard super-block. The root IS the leaf
// and the proof has no siblings.
func TestProofSingleLeafTree(t *testing.T) {
	leaves := []Hash{shardLeaf(0)}
	root := RootOf(leaves)
	if root != leaves[0] {
		t.Fatalf("1-leaf root %s != leaf %s", root, leaves[0])
	}
	p, err := BuildProof(leaves, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Siblings) != 0 {
		t.Fatalf("1-leaf proof has %d siblings, want 0", len(p.Siblings))
	}
	if !p.Verify(root, leaves[0]) {
		t.Fatal("1-leaf proof does not verify")
	}
	if p.Verify(root, shardLeaf(1)) {
		t.Fatal("1-leaf proof verified a different leaf")
	}
}

// TestProofTwoLeafTree: a 2-shard super-block. Each proof carries exactly
// the other shard's head as its single sibling.
func TestProofTwoLeafTree(t *testing.T) {
	leaves := []Hash{shardLeaf(0), shardLeaf(1)}
	root := RootOf(leaves)
	for i := uint64(0); i < 2; i++ {
		p, err := BuildProof(leaves, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Siblings) != 1 {
			t.Fatalf("2-leaf proof %d has %d siblings, want 1", i, len(p.Siblings))
		}
		if p.Siblings[0] != leaves[1-i] {
			t.Fatalf("2-leaf proof %d sibling is not the other shard's head", i)
		}
		if !p.Verify(root, leaves[i]) {
			t.Fatalf("2-leaf proof %d does not verify", i)
		}
		if p.Verify(root, leaves[1-i]) {
			t.Fatalf("2-leaf proof %d verified the wrong shard's head", i)
		}
	}
}

// TestProofDuplicateLeaves: two shards can legitimately have identical
// head hashes (e.g. both empty). Each position still proves independently
// — inclusion is positional, not value-based — and a proof built for one
// position must carry that position's index.
func TestProofDuplicateLeaves(t *testing.T) {
	dup := shardLeaf(7)
	for _, leaves := range [][]Hash{
		{dup, dup},
		{dup, dup, dup},
		{shardLeaf(0), dup, dup, shardLeaf(3)},
	} {
		root := RootOf(leaves)
		for i := range leaves {
			p, err := BuildProof(leaves, uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if p.Index != uint64(i) || p.LeafCount != uint64(len(leaves)) {
				t.Fatalf("proof metadata (%d,%d), want (%d,%d)", p.Index, p.LeafCount, i, len(leaves))
			}
			if !p.Verify(root, leaves[i]) {
				t.Fatalf("n=%d: proof for duplicate leaf %d does not verify", len(leaves), i)
			}
		}
	}
}

// TestBuildProofsEquivalenceAtShardScale: BuildProofs over every index of
// a small tree returns byte-identical proofs to per-index BuildProof
// calls, for every super-block size the sharded ledger produces.
func TestBuildProofsEquivalenceAtShardScale(t *testing.T) {
	for n := 1; n <= 9; n++ {
		leaves := make([]Hash, n)
		indices := make([]uint64, n)
		for i := range leaves {
			leaves[i] = shardLeaf(i)
			indices[i] = uint64(i)
		}
		_, batch, err := BuildProofs(leaves, indices)
		if err != nil {
			t.Fatal(err)
		}
		root := RootOf(leaves)
		for i := range indices {
			single, err := BuildProof(leaves, uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch[i], single) {
				t.Fatalf("n=%d index %d: BuildProofs %+v != BuildProof %+v", n, i, batch[i], single)
			}
			if !batch[i].Verify(root, leaves[i]) {
				t.Fatalf("n=%d index %d: batch proof does not verify", n, i)
			}
		}
	}
}

// Package merkle implements the Merkle-tree machinery that SQL Ledger
// builds on: the streaming root computation from §3.2.1 of the paper
// (O(N) time, O(log N) space, with snapshot/restore support for partial
// transaction rollbacks), full-tree construction, and Merkle inclusion
// proofs used by block verification and transaction receipts (§5.1).
package merkle

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Hash is a SHA-256 digest.
type Hash [sha256.Size]byte

// ZeroHash is the all-zero hash, used as the "previous block" reference of
// block 0 in the database ledger.
var ZeroHash Hash

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses a lowercase/uppercase hex digest.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("merkle: bad hash: %w", err)
	}
	if len(b) != sha256.Size {
		return h, fmt.Errorf("merkle: hash must be %d bytes, got %d", sha256.Size, len(b))
	}
	copy(h[:], b)
	return h, nil
}

// HashLeaf hashes raw leaf content.
func HashLeaf(content []byte) Hash { return sha256.Sum256(content) }

// combine hashes an interior node from its two children.
func combine(left, right Hash) Hash {
	var buf [2 * sha256.Size]byte
	copy(buf[:sha256.Size], left[:])
	copy(buf[sha256.Size:], right[:])
	return sha256.Sum256(buf[:])
}

// Streaming computes the root of a Merkle tree over a stream of leaf
// hashes without materializing the tree. Per §3.2.1 it keeps, for every
// level, the last node appended to that level; when a node gains a sibling
// the pair is hashed and propagated to the parent level. At finalization a
// node without a sibling is promoted unchanged to its parent level.
//
// The zero Streaming is an empty tree ready for use.
type Streaming struct {
	// levels[l] holds the pending (sibling-less) node of level l, valid
	// when the l-th bit of count's binary representation tracks it; we
	// track presence explicitly with has[l].
	levels []Hash
	has    []bool
	count  uint64
}

// Append adds a leaf hash to the tree.
func (s *Streaming) Append(leaf Hash) {
	node := leaf
	level := 0
	for {
		if level == len(s.levels) {
			s.levels = append(s.levels, node)
			s.has = append(s.has, true)
			break
		}
		if !s.has[level] {
			s.levels[level] = node
			s.has[level] = true
			break
		}
		// The pending node of this level gains a sibling: combine and
		// carry to the parent level.
		node = combine(s.levels[level], node)
		s.has[level] = false
		level++
	}
	s.count++
}

// Count returns the number of leaves appended so far.
func (s *Streaming) Count() uint64 { return s.count }

// Root finalizes and returns the root over the leaves appended so far.
// Per the paper, a node without a sibling is promoted as its own parent.
// The root of an empty tree is ZeroHash. Root does not consume the
// streaming state; more leaves may be appended afterwards.
func (s *Streaming) Root() Hash {
	var acc Hash
	have := false
	for l := 0; l < len(s.levels); l++ {
		if !s.has[l] {
			continue
		}
		if !have {
			acc = s.levels[l] // promoted up to this level unchanged
			have = true
			continue
		}
		acc = combine(s.levels[l], acc)
	}
	if !have {
		return ZeroHash
	}
	return acc
}

// Snapshot captures the current streaming state. Snapshots back the
// savepoint support described in §3.2.1: the O(log N) state makes copies
// cheap even for transactions holding many savepoints.
type Snapshot struct {
	levels []Hash
	has    []bool
	count  uint64
}

// Snapshot returns a copy of the current state.
func (s *Streaming) Snapshot() Snapshot {
	return Snapshot{
		levels: append([]Hash(nil), s.levels...),
		has:    append([]bool(nil), s.has...),
		count:  s.count,
	}
}

// Restore brings the tree back to a previously captured state.
func (s *Streaming) Restore(snap Snapshot) {
	s.levels = append(s.levels[:0], snap.levels...)
	s.has = append(s.has[:0], snap.has...)
	s.count = snap.count
}

// Reset returns the tree to empty.
func (s *Streaming) Reset() {
	s.levels = s.levels[:0]
	s.has = s.has[:0]
	s.count = 0
}

// streamingPool recycles Streaming trees and their O(log N) level slices
// across transactions: every ledger transaction needs one tree per touched
// table, and the ingest fast path must not pay an allocation for it.
var streamingPool = sync.Pool{New: func() any { return new(Streaming) }}

// GetStreaming returns an empty Streaming from the pool.
func GetStreaming() *Streaming { return streamingPool.Get().(*Streaming) }

// PutStreaming resets s and returns it to the pool. The caller must not
// use s afterwards.
func PutStreaming(s *Streaming) {
	s.Reset()
	streamingPool.Put(s)
}

// Accumulator is an order-independent multiset accumulator over leaf
// hashes: it sums hashes as 256-bit big-endian integers mod 2^256 and
// counts them (the additive "MSet-Add-Hash" construction). Two
// accumulators compare Equal iff they absorbed the same multiset of
// hashes, under the usual additive-accumulator collision assumptions.
//
// Unlike Streaming, whose state depends on leaf order and cannot be
// combined across partial streams, Accumulator is mergeable: disjoint
// shards of a scan can accumulate independently and Merge their states,
// which the sharded single-pass index verification (invariant 5) relies
// on. Callers that need an ordering guarantee must check it separately —
// the accumulator, by design, cannot see order.
//
// The zero Accumulator is empty and ready for use.
type Accumulator struct {
	sum   Hash
	count uint64
}

// Add absorbs one leaf hash.
func (a *Accumulator) Add(h Hash) {
	addInto(&a.sum, h)
	a.count++
}

// Merge absorbs another accumulator's state, as if every hash added to b
// had been added to a.
func (a *Accumulator) Merge(b Accumulator) {
	addInto(&a.sum, b.sum)
	a.count += b.count
}

// Equal reports whether both accumulators absorbed the same multiset of
// hashes (same sum and same count).
func (a Accumulator) Equal(b Accumulator) bool {
	return a.count == b.count && a.sum == b.sum
}

// addInto adds b into a as 256-bit big-endian integers mod 2^256.
func addInto(a *Hash, b Hash) {
	var carry uint16
	for i := sha256.Size - 1; i >= 0; i-- {
		s := uint16(a[i]) + uint16(b[i]) + carry
		a[i] = byte(s)
		carry = s >> 8
	}
}

// RootOf computes the Merkle root over a slice of leaf hashes using the
// same promotion rule as Streaming. It is the MERKLETREEAGG analogue used
// by the verification queries.
func RootOf(leaves []Hash) Hash {
	// A pooled tree: verification calls this once per transaction and
	// table, and a fresh one's level slices would be two allocations each.
	s := GetStreaming()
	for _, l := range leaves {
		s.Append(l)
	}
	root := s.Root()
	PutStreaming(s)
	return root
}

// Proof is a Merkle inclusion proof for the leaf at Index within a tree of
// LeafCount leaves. Siblings lists the sibling hashes from the leaf level
// toward the root; levels where the node was promoted (no sibling) are
// skipped, which the verifier reconstructs from Index and LeafCount.
type Proof struct {
	Index     uint64
	LeafCount uint64
	Siblings  []Hash
}

// BuildProof constructs the inclusion proof for leaves[index].
func BuildProof(leaves []Hash, index uint64) (Proof, error) {
	n := uint64(len(leaves))
	if index >= n {
		return Proof{}, fmt.Errorf("merkle: index %d out of range (%d leaves)", index, n)
	}
	p := Proof{Index: index, LeafCount: n}
	level := append([]Hash(nil), leaves...)
	pos := index
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, combine(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // promotion
			}
		}
		sib := pos ^ 1
		if sib < uint64(len(level)) {
			p.Siblings = append(p.Siblings, level[sib])
		}
		pos /= 2
		level = next
	}
	return p, nil
}

// BuildProofs constructs inclusion proofs for several leaves of the same
// tree in one pass. BuildProof recomputes every tree level per call, so
// proving k rows of one transaction costs k full tree constructions;
// BuildProofs computes the levels once and extracts all k sibling paths
// from them, and the root they reach, RootOf(leaves), with them. Read
// receipts use it to prove every row a snapshot read touched within a
// (transaction, table) tree, and every entry within a block tree.
func BuildProofs(leaves []Hash, indices []uint64) (Hash, []Proof, error) {
	n := uint64(len(leaves))
	proofs := make([]Proof, len(indices))
	pos := make([]uint64, len(indices))
	for i, idx := range indices {
		if idx >= n {
			return ZeroHash, nil, fmt.Errorf("merkle: index %d out of range (%d leaves)", idx, n)
		}
		proofs[i] = Proof{Index: idx, LeafCount: n}
		pos[i] = idx
	}
	if n == 0 {
		return ZeroHash, proofs, nil
	}
	// One copy of the leaves holds every level in turn: level l+1 is
	// written over the front of level l, behind the pairs it is read from.
	level := append([]Hash(nil), leaves...)
	for w := uint64(len(level)); w > 1; w = (w + 1) / 2 {
		for i := range proofs {
			if sib := pos[i] ^ 1; sib < w {
				proofs[i].Siblings = append(proofs[i].Siblings, level[sib])
			}
			pos[i] /= 2
		}
		for i := uint64(0); i < w; i += 2 {
			if i+1 < w {
				level[i/2] = combine(level[i], level[i+1])
			} else {
				level[i/2] = level[i] // promotion
			}
		}
	}
	return level[0], proofs, nil
}

// LevelOf returns level k of the tree over leaves: the root of each run of
// 2^k leaves, the last run perhaps shorter. Every node above it is a
// function of it alone.
func LevelOf(leaves []Hash, k uint) []Hash {
	out := make([]Hash, 0, (len(leaves)+1<<k-1)>>k)
	for lo := 0; lo < len(leaves); lo += 1 << k {
		out = append(out, RootOf(leaves[lo:min(lo+1<<k, len(leaves))]))
	}
	return out
}

// BuildProofsAt is BuildProofs for a tree whose level k (LevelOf) is kept
// beside its leaves: a proof's siblings below level k come from the 2^k
// leaves of its run, those above from one tree built over the level, so
// proving a few leaves costs O(2^k + n/2^k) hashes instead of O(n).
func BuildProofsAt(leaves, level []Hash, k uint, indices []uint64) (Hash, []Proof, error) {
	n := uint64(len(leaves))
	runs := make([]uint64, len(indices))
	for i, idx := range indices {
		if idx >= n {
			return ZeroHash, nil, fmt.Errorf("merkle: index %d out of range (%d leaves)", idx, n)
		}
		runs[i] = idx >> k
	}
	root, proofs, err := BuildProofs(level, runs)
	if err != nil {
		return ZeroHash, nil, err
	}
	for i, idx := range indices {
		lo := idx >> k << k
		_, in, _ := BuildProofs(leaves[lo:min(lo+1<<k, n)], []uint64{idx - lo})
		proofs[i] = Proof{Index: idx, LeafCount: n, Siblings: append(in[0].Siblings, proofs[i].Siblings...)}
	}
	return root, proofs, nil
}

// Verify checks that leaf at p.Index is included in the tree whose root is
// root, given the proof.
func (p Proof) Verify(root, leaf Hash) bool {
	if p.Index >= p.LeafCount || p.LeafCount == 0 {
		return false
	}
	node := leaf
	pos := p.Index
	width := p.LeafCount
	si := 0
	for width > 1 {
		if pos^1 < width { // node has a sibling at this level
			if si >= len(p.Siblings) {
				return false
			}
			sib := p.Siblings[si]
			si++
			if pos&1 == 0 {
				node = combine(node, sib)
			} else {
				node = combine(sib, node)
			}
		}
		// else: promoted unchanged
		pos /= 2
		width = (width + 1) / 2
	}
	return si == len(p.Siblings) && node == root
}

package core

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"sqlledger/internal/blobstore"
	"sqlledger/internal/merkle"
	"sqlledger/internal/serial"
	"sqlledger/internal/wal"
)

// The super-block is the database's digest of digests (§2.2 scaled out):
// each shard remains an independent ledger with its own block chain and
// digests, and the coordinator periodically snapshots the N shard
// chain heads, builds a Merkle tree over the shard-head hashes, chains
// the result to the previous super-block and signs it (ed25519). The one
// signed super-root then protects every shard: an auditor holding a
// super-block can demand a Merkle proof for any shard's head digest and
// verify that shard alone, without trusting the other N-1 shards or the
// coordinator's bookkeeping.

// ShardHead is one shard's chain head inside a super-block. Empty marks a
// shard that has no closed blocks yet (its digest is zero-valued); the
// emptiness is part of the signed leaf, so an attacker cannot pass off a
// truncated shard as never-written.
type ShardHead struct {
	Shard  int    `json:"shard"`
	Empty  bool   `json:"empty,omitempty"`
	Digest Digest `json:"digest"`
}

// SuperBlock is a signed digest of all shard digests.
type SuperBlock struct {
	DatabaseName string `json:"database_name"`
	Shards       int    `json:"shards"`
	// SeqNo numbers super-blocks from 1; PreviousHash chains them
	// (hex; zero hash for the first).
	SeqNo        uint64      `json:"seq_no"`
	PreviousHash string      `json:"previous_hash"`
	Heads        []ShardHead `json:"heads"`
	// Root is the hex Merkle root over the shard-head leaf hashes, in
	// shard order.
	Root        string `json:"root"`
	GeneratedAt int64  `json:"generated_at"`
	// Signature is the ed25519 signature over the super-block hash;
	// PublicKey is embedded for convenience (auditors should pin the
	// publicly known key instead of trusting the embedded copy).
	Signature []byte            `json:"signature"`
	PublicKey ed25519.PublicKey `json:"public_key"`
}

// shardHeadLeaf canonicalizes one shard head as a Merkle leaf.
func shardHeadLeaf(h ShardHead) merkle.Hash {
	empty := byte(0)
	if h.Empty {
		empty = 1
	}
	return serial.HashBytes(
		[]byte("sqlledger-shard-head"),
		u64le(uint64(h.Shard)),
		[]byte{empty},
		[]byte(h.Digest.DatabaseName),
		u64le(uint64(h.Digest.Incarnation)),
		u64le(h.Digest.BlockID),
		[]byte(h.Digest.Hash),
		u64le(uint64(h.Digest.LastCommitTS)),
	)
}

// superBlockHash is the chained identity of a super-block: everything an
// auditor relies on, bound under a domain tag. The signature covers it.
func superBlockHash(sb *SuperBlock) merkle.Hash {
	return serial.HashBytes(
		[]byte("sqlledger-superblock"),
		[]byte(sb.DatabaseName),
		u64le(uint64(sb.Shards)),
		u64le(sb.SeqNo),
		[]byte(sb.PreviousHash),
		[]byte(sb.Root),
		u64le(uint64(sb.GeneratedAt)),
	)
}

// Hash returns the super-block's chained hash.
func (sb *SuperBlock) Hash() merkle.Hash { return superBlockHash(sb) }

// headLeaves computes the per-shard leaf hashes in shard order.
func (sb *SuperBlock) headLeaves() []merkle.Hash {
	leaves := make([]merkle.Hash, len(sb.Heads))
	for i, h := range sb.Heads {
		leaves[i] = shardHeadLeaf(h)
	}
	return leaves
}

// JSON renders the super-block as a JSON document.
func (sb *SuperBlock) JSON() []byte {
	b, err := json.Marshal(sb)
	if err != nil {
		panic(fmt.Sprintf("core: super-block marshal: %v", err))
	}
	return b
}

// ParseSuperBlock parses a super-block document.
func ParseSuperBlock(b []byte) (*SuperBlock, error) {
	sb := new(SuperBlock)
	if err := json.Unmarshal(b, sb); err != nil {
		return nil, fmt.Errorf("core: bad super-block: %w", err)
	}
	return sb, nil
}

// CheckSuperBlock verifies a super-block's internal consistency and its
// signature under pub: the Merkle root must equal the root recomputed
// from the shard heads, and the signature must cover the super-block
// hash. It does not touch any shard data — use VerifySuperBlock for that.
func CheckSuperBlock(sb *SuperBlock, pub ed25519.PublicKey) error {
	if len(sb.Heads) != sb.Shards {
		return fmt.Errorf("core: super-block lists %d heads for %d shards", len(sb.Heads), sb.Shards)
	}
	for i, h := range sb.Heads {
		if h.Shard != i {
			return fmt.Errorf("core: super-block head %d claims shard %d", i, h.Shard)
		}
	}
	root := merkle.RootOf(sb.headLeaves())
	if root.String() != sb.Root {
		return fmt.Errorf("core: super-block root does not match its shard heads")
	}
	hash := superBlockHash(sb)
	if len(pub) != ed25519.PublicKeySize || !ed25519.Verify(pub, hash[:], sb.Signature) {
		return fmt.Errorf("core: super-block signature is invalid")
	}
	return nil
}

// ShardProof extracts the Merkle proof that shard's head digest is
// covered by the super-block root. Together with the signed root it lets
// an auditor verify a single shard without the other N-1.
func ShardProof(sb *SuperBlock, shard int) (merkle.Proof, error) {
	if shard < 0 || shard >= len(sb.Heads) {
		return merkle.Proof{}, fmt.Errorf("core: no shard %d in super-block", shard)
	}
	return merkle.BuildProof(sb.headLeaves(), uint64(shard))
}

// superBlockFile is the coordinator's watermark: the latest super-block,
// persisted in the database's root directory and reconciled at open —
// every shard must still contain the exact block each signed head
// describes, or the open fails loudly (a shard was forked or rolled back
// behind the last signed state).
const superBlockFile = "superblock.json"

// superKeyFile persists the ed25519 seed that signs super-blocks, hex
// encoded, in the database's root directory. It is created by the first
// CloseSuperBlock (or PublicKey), not at open: a database that never
// closes a super-block has neither file.
const superKeyFile = "superblock.key"

// superKey returns the signing key, loading or creating it on first use.
// Caller holds smu.
func (db *DB) superKey() (ed25519.PrivateKey, error) {
	if db.priv != nil {
		return db.priv, nil
	}
	path := filepath.Join(db.opts.Dir, superKeyFile)
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		seed, derr := hex.DecodeString(string(b))
		if derr != nil || len(seed) != ed25519.SeedSize {
			return nil, fmt.Errorf("core: bad super-block key file %s", path)
		}
		db.priv = ed25519.NewKeyFromSeed(seed)
	case !os.IsNotExist(err):
		return nil, err
	default:
		seed := make([]byte, ed25519.SeedSize)
		if _, err := rand.Read(seed); err != nil {
			return nil, err
		}
		if err := wal.WriteFileAtomic(path, 0o600, []byte(hex.EncodeToString(seed))); err != nil {
			return nil, err
		}
		db.priv = ed25519.NewKeyFromSeed(seed)
	}
	return db.priv, nil
}

// PublicKey returns the super-block verification key — nil when the key
// file can be neither read nor created (CloseSuperBlock reports why).
func (db *DB) PublicKey() ed25519.PublicKey {
	db.smu.Lock()
	defer db.smu.Unlock()
	priv, err := db.superKey()
	if err != nil {
		return nil
	}
	return append(ed25519.PublicKey(nil), priv.Public().(ed25519.PublicKey)...)
}

// LastSuperBlock returns the latest closed super-block, if any.
func (db *DB) LastSuperBlock() *SuperBlock {
	db.smu.Lock()
	defer db.smu.Unlock()
	return db.lastSuper
}

// CloseSuperBlock snapshots every shard's chain head (generating a fresh
// digest per shard, in shard order), builds the Merkle tree over the
// heads, chains and signs the result, and persists it as the new
// watermark. Digest generation is sequential on purpose: closing a block
// draws a close timestamp from the shared clock into the block hash, so
// under a logical clock a fixed shard order is what makes identical
// ingest histories land on the identical super-root. Shards with no
// transactions yet appear as Empty heads, so a super-block can be closed
// at any point in the database's life.
func (db *DB) CloseSuperBlock() (sb *SuperBlock, err error) {
	tr := db.obs.NewTrace("close_superblock")
	defer func() {
		if err == nil {
			tr.SetAttr("seq", strconv.FormatUint(sb.SeqNo, 10))
			tr.SetAttr("shards", strconv.Itoa(sb.Shards))
		}
		tr.Finish(err)
	}()
	db.smu.Lock()
	defer db.smu.Unlock()
	priv, err := db.superKey()
	if err != nil {
		return nil, err
	}

	heads, err := fanOut(db, false, func(i int, l *Shard) (ShardHead, error) {
		d, err := l.GenerateDigest()
		if err == ErrEmptyLedger {
			return ShardHead{Shard: i, Empty: true}, nil
		}
		return ShardHead{Shard: i, Digest: d}, err
	})
	if err != nil {
		return nil, err
	}

	seq, prev := uint64(1), merkle.ZeroHash.String()
	if db.lastSuper != nil {
		seq = db.lastSuper.SeqNo + 1
		prev = db.lastSuper.Hash().String()
	}
	sb = &SuperBlock{
		DatabaseName: db.opts.Name,
		Shards:       len(db.shards),
		SeqNo:        seq,
		PreviousHash: prev,
		Heads:        heads,
		GeneratedAt:  db.nowNanos(),
		PublicKey:    append(ed25519.PublicKey(nil), priv.Public().(ed25519.PublicKey)...),
	}
	sb.Root = merkle.RootOf(sb.headLeaves()).String()
	hash := superBlockHash(sb)
	sb.Signature = ed25519.Sign(priv, hash[:])

	if err := wal.WriteFileAtomic(filepath.Join(db.opts.Dir, superBlockFile), 0o644, sb.JSON()); err != nil {
		return nil, err
	}
	db.lastSuper = sb
	return sb, nil
}

// loadWatermark reads the persisted super-block, if any, at open, and
// reconciles it with the shards. The file is read back from disk, so it
// is hostile input: it must parse, be internally consistent and carry a
// valid signature under the database's own key (CheckSuperBlock — which
// also bounds every head's shard index), cover this database's shard
// count, and every signed head must still match its shard's chain.
func (db *DB) loadWatermark() error {
	b, err := os.ReadFile(filepath.Join(db.opts.Dir, superBlockFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	sb, err := ParseSuperBlock(b)
	if err != nil {
		return err
	}
	priv, err := db.superKey() // no user traffic yet: smu is not needed
	if err != nil {
		return err
	}
	if err := CheckSuperBlock(sb, priv.Public().(ed25519.PublicKey)); err != nil {
		return fmt.Errorf("core: super-block watermark %s: %w", superBlockFile, err)
	}
	if sb.Shards != len(db.shards) {
		return fmt.Errorf("core: super-block watermark covers %d shards, database opened with %d", sb.Shards, len(db.shards))
	}
	if err := db.checkHeads(sb, func(h ShardHead, err error) error {
		return fmt.Errorf("core: shard %d diverged from super-block watermark %d: %w", h.Shard, sb.SeqNo, err)
	}); err != nil {
		return err
	}
	db.lastSuper = sb
	return nil
}

// checkHeads pins every non-empty head of sb (already checked by
// CheckSuperBlock) against its shard's live chain, handing each mismatch
// to fail and stopping when that returns an error.
func (db *DB) checkHeads(sb *SuperBlock, fail func(ShardHead, error) error) error {
	for _, h := range sb.Heads {
		if h.Empty {
			continue
		}
		if err := db.shards[h.Shard].CheckDigest(h.Digest); err != nil {
			if err := fail(h, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// superBlobName builds the blob path for a super-block: the super chain
// lives under "<db>/super/", beside the per-shard digest namespaces.
func superBlobName(dbName string, seq uint64) string {
	return fmt.Sprintf("%s/super/block-%016d.json", dbName, seq)
}

// UploadSuperBlock closes a super-block and stores it in immutable
// storage, enforcing the same immutability rule as per-shard digest
// uploads: a slot can only ever hold one super-block, and finding a
// different one there means the ledger forked.
func (db *DB) UploadSuperBlock(store blobstore.Store) (out *SuperBlock, err error) {
	store = blobstore.Instrument(store, db.obs)
	tr := db.obs.NewTrace("upload_superblock")
	defer func() { tr.Finish(err) }()
	sb, err := db.CloseSuperBlock()
	if err != nil {
		return nil, err
	}
	tr.SetAttr("seq", strconv.FormatUint(sb.SeqNo, 10))
	name := superBlobName(sb.DatabaseName, sb.SeqNo)
	if perr := store.Put(name, sb.JSON()); perr != nil {
		if b, gerr := store.Get(name); gerr == nil {
			prev, parseErr := ParseSuperBlock(b)
			if parseErr == nil && prev.Root == sb.Root && prev.SeqNo == sb.SeqNo {
				return prev, nil
			}
			return nil, fmt.Errorf("core: immutable store already holds a DIFFERENT super-block %d — forked ledger", sb.SeqNo)
		}
		return nil, perr
	}
	return sb, nil
}

// VerifySuperBlock verifies the database against a signed super-block:
// the signature and Merkle root are checked first (CheckSuperBlock), then
// each shard is verified in parallel — the shard's chain must still
// contain the exact block its head describes, and the shard's full
// verification (all five invariants) must pass against that digest. A tampered shard fails
// alone; the report's breakdown localizes the damage while clean shards
// verify green.
func VerifySuperBlock(db *DB, sb *SuperBlock, pub ed25519.PublicKey, opts VerifyOptions) (*Report, error) {
	if err := CheckSuperBlock(sb, pub); err != nil {
		return nil, err
	}
	if sb.Shards != len(db.shards) {
		return nil, fmt.Errorf("core: super-block covers %d shards, database has %d", sb.Shards, len(db.shards))
	}
	return db.verifyShards(func(i int, l *Shard) ShardReport {
		head := sb.Heads[i]
		if head.Empty {
			return ShardReport{}
		}
		if err := l.CheckDigest(head.Digest); err != nil {
			return ShardReport{HeadErr: err}
		}
		rep, err := l.Verify([]Digest{head.Digest}, opts)
		return ShardReport{Report: rep, HeadErr: err}
	}), nil
}

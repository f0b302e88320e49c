package core

import (
	"encoding/json"
	"fmt"
	"time"

	"sqlledger/internal/merkle"
	"sqlledger/internal/obs"
)

// Digest is a database digest (§2.2): the hash of the latest block of the
// database ledger plus metadata, serialized as JSON. Stored outside the
// database (immutable storage, WORM device, a public blockchain, ...), a
// digest later proves that the data it covers was not tampered with.
type Digest struct {
	DatabaseName string `json:"database_name"`
	// Incarnation is the database create time; restores start a new
	// incarnation (§3.6).
	Incarnation int64  `json:"database_create_time"`
	BlockID     uint64 `json:"block_id"`
	// Hash is the hex-encoded SHA-256 hash of the block.
	Hash string `json:"hash"`
	// LastCommitTS is the commit timestamp (unix nanoseconds) of the last
	// transaction in the block.
	LastCommitTS int64 `json:"last_transaction_commit_time"`
	// GeneratedAt is when the digest was produced (unix nanoseconds).
	GeneratedAt int64 `json:"digest_time"`
}

// BlockHash decodes the digest's hash.
func (d Digest) BlockHash() (merkle.Hash, error) { return merkle.ParseHash(d.Hash) }

// JSON renders the digest as the JSON document the API exposes.
func (d Digest) JSON() []byte {
	b, err := json.Marshal(d)
	if err != nil {
		panic(fmt.Sprintf("core: digest marshal: %v", err)) // static type: cannot fail
	}
	return b
}

// ParseDigest parses a digest JSON document.
func ParseDigest(b []byte) (Digest, error) {
	var d Digest
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("core: bad digest: %w", err)
	}
	if _, err := d.BlockHash(); err != nil {
		return d, err
	}
	return d, nil
}

// GenerateDigest closes the current block (if it holds any transactions)
// and returns the digest of the latest closed block. Digest generation is
// cheap — it only hashes recently appended blocks — which is what lets
// digests be extracted every few seconds (§2.2).
//
// When geo-replication is simulated (Options.ReplicaLag), the digest is
// delayed until the covered data has been replicated; if the secondary
// stays behind for longer than MaxReplicaDelay, ErrReplicationBehind is
// returned, mirroring §3.6.
func (l *Shard) GenerateDigest() (d Digest, err error) {
	start := time.Now()
	tr := l.obs.NewTrace("generate_digest")
	defer func() {
		tr.Finish(err)
		if err == nil {
			l.m.digestSeconds.ObserveSince(start)
			l.m.digests.Inc()
		}
	}()
	l.lmu.Lock()
	if l.curOrdinal > 0 {
		// Force-close the partially filled block so the digest covers
		// every committed transaction.
		l.curBlock++
		l.curOrdinal = 0
	}
	target := int64(l.curBlock) - 1
	l.lmu.Unlock()

	if target >= 0 {
		if err := l.waitForReplication(target); err != nil {
			return Digest{}, err
		}
		if err := l.closeBlocksThrough(target, false); err != nil {
			return Digest{}, err
		}
	}
	l.closeMu.Lock()
	latest := l.closedThrough
	hash := l.prevHash
	l.closeMu.Unlock()
	if latest < 0 {
		return Digest{}, ErrEmptyLedger
	}
	if _, ok := l.sysBlocks.Lookup(blockKey(latest)); !ok {
		return Digest{}, fmt.Errorf("core: closed block %d missing from %s", latest, sysBlocksName)
	}
	lastTS := l.lastCommitOfBlock(uint64(latest))
	l.obs.Events().Info(obs.EventDigestGenerated, "block", latest, "hash", hash.String())
	return Digest{
		DatabaseName: l.opts.Name,
		Incarnation:  l.incarnation,
		BlockID:      uint64(latest),
		Hash:         hash.String(),
		LastCommitTS: lastTS,
		GeneratedAt:  l.nowNanos(),
	}, nil
}

func (l *Shard) lastCommitOfBlock(block uint64) int64 {
	var ts int64
	for _, e := range l.entriesOfBlock(block) {
		if e.CommitTS > ts {
			ts = e.CommitTS
		}
	}
	return ts
}

// waitForReplication blocks until the simulated geo-secondary has applied
// every transaction the digest would cover (§3.6: "SQL Ledger will only
// issue Database Digests for data that has been replicated").
func (l *Shard) waitForReplication(targetBlock int64) error {
	if l.opts.ReplicaLag == nil {
		return nil
	}
	lastTS := l.lastCommitOfBlock(uint64(targetBlock))
	deadline := time.Now().Add(l.opts.MaxReplicaDelay)
	for {
		applied := time.Now().Add(-l.opts.ReplicaLag()).UnixNano()
		if applied >= lastTS {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: lag %v", ErrReplicationBehind, l.opts.ReplicaLag())
		}
		time.Sleep(time.Millisecond)
	}
}

// CheckDigest checks that a digest still matches this database's chain:
// same name and incarnation, and the digest's block is present in
// sys_ledger_blocks with exactly the hash the digest recorded. It is the
// cheap point check the super-block reconciliation and verification use
// to pin each shard head before (or without) a full five-invariant
// verification.
func (l *Shard) CheckDigest(d Digest) error {
	if d.DatabaseName != l.opts.Name {
		return fmt.Errorf("core: digest names database %q, this is %q", d.DatabaseName, l.opts.Name)
	}
	if d.Incarnation != l.incarnation {
		return fmt.Errorf("core: digest is for incarnation %d, database is at %d (restored?)", d.Incarnation, l.incarnation)
	}
	want, err := d.BlockHash()
	if err != nil {
		return err
	}
	_, got, ok := l.closedBlock(int64(d.BlockID))
	if !ok {
		return fmt.Errorf("core: digest block %d is not closed in this database", d.BlockID)
	}
	if got != want {
		return fmt.Errorf("core: block %d hash does not match the digest (forked ledger)", d.BlockID)
	}
	return nil
}

// VerifyDigestDerivation checks that digest newer can be derived from
// digest older using the current block chain (§3.3.1, requirement 3):
// both digests must match the recomputed hashes of their blocks, and the
// chain must link older's block to newer's. A failure means earlier data
// was overwritten and newer represents a forked state. This catches forks
// as soon as a new digest is generated, without a full verification.
func (l *Shard) VerifyDigestDerivation(older, newer Digest) error {
	if older.BlockID > newer.BlockID {
		return fmt.Errorf("core: digest for block %d is not older than block %d", older.BlockID, newer.BlockID)
	}
	oldHash, err := older.BlockHash()
	if err != nil {
		return err
	}
	newHash, err := newer.BlockHash()
	if err != nil {
		return err
	}
	prev := merkle.ZeroHash
	for b := older.BlockID; b <= newer.BlockID; b++ {
		row, h, ok := l.closedBlock(int64(b))
		if !ok {
			return fmt.Errorf("core: block %d missing while deriving digest chain", b)
		}
		switch {
		case b == older.BlockID && h != oldHash:
			return fmt.Errorf("core: block %d hash does not match the older digest (forked ledger)", b)
		case b > older.BlockID:
			var stored merkle.Hash
			copy(stored[:], row[1].Bytes)
			if stored != prev {
				return fmt.Errorf("core: block %d previous-hash link broken while deriving digest chain", b)
			}
		}
		prev = h
	}
	if prev != newHash {
		return fmt.Errorf("core: derived hash for block %d does not match the newer digest (forked ledger)", newer.BlockID)
	}
	return nil
}

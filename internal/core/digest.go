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
func (db *DB) GenerateDigest() (d Digest, err error) {
	tr := db.obs.NewTrace("generate_digest")
	defer func() { tr.Finish(err) }()
	// Force-close the partially filled block so the digest covers every
	// committed transaction.
	if target := db.entries.seal(); target >= 0 {
		if err := db.waitForReplication(target); err != nil {
			return Digest{}, err
		}
		if err := db.closeBlocksThrough(target, false); err != nil {
			return Digest{}, err
		}
	}
	db.closeMu.Lock()
	latest := db.closedThrough
	hash := db.prevHash
	db.closeMu.Unlock()
	if latest < 0 {
		return Digest{}, ErrEmptyLedger
	}
	if _, ok := db.sysBlocks.LookupStored(blockKey(latest)); !ok {
		return Digest{}, fmt.Errorf("core: closed block %d missing from %s", latest, sysBlocksName)
	}
	lastTS := db.lastCommitOfBlock(uint64(latest))
	db.obs.Events().Info(obs.EventDigestGenerated, "block", latest, "hash", hash.String())
	return Digest{
		DatabaseName: db.opts.Name,
		Incarnation:  db.Incarnation(),
		BlockID:      uint64(latest),
		Hash:         hash.String(),
		LastCommitTS: lastTS,
		GeneratedAt:  db.nowNanos(),
	}, nil
}

func (db *DB) lastCommitOfBlock(block uint64) int64 {
	var ts int64
	es, _ := db.entries.ofBlock(block) // commit times decode even where roots do not
	for _, e := range es {
		if e.CommitTS > ts {
			ts = e.CommitTS
		}
	}
	return ts
}

// waitForReplication blocks until the simulated geo-secondary has applied
// every transaction the digest would cover (§3.6: "SQL Ledger will only
// issue Database Digests for data that has been replicated").
func (db *DB) waitForReplication(targetBlock int64) error {
	if db.opts.ReplicaLag == nil {
		return nil
	}
	lastTS := db.lastCommitOfBlock(uint64(targetBlock))
	deadline := time.Now().Add(db.opts.MaxReplicaDelay)
	for {
		applied := time.Now().Add(-db.opts.ReplicaLag()).UnixNano()
		if applied >= lastTS {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: lag %v", ErrReplicationBehind, db.opts.ReplicaLag())
		}
		time.Sleep(time.Millisecond)
	}
}

// VerifyDigestDerivation checks that digest newer can be derived from
// digest older using the current block chain (§3.3.1, requirement 3):
// both digests must match the recomputed hashes of their blocks, and the
// chain must link older's block to newer's. A failure means earlier data
// was overwritten and newer represents a forked state. This catches forks
// as soon as a new digest is generated, without a full verification.
func (db *DB) VerifyDigestDerivation(older, newer Digest) error {
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
		row, h, ok := db.closedBlock(int64(b))
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

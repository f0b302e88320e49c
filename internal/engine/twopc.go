package engine

import (
	"fmt"
	"sort"

	"sqlledger/internal/wal"
)

// Two-phase commit participant API. A cross-shard transaction is one
// engine.Tx per participating shard; the coordinator (internal/core's
// twopc.go) drives each participant through Prepare and then, once its
// commit decision is durable, CommitPrepared — or AbortPrepared when the
// decision is (or is presumed to be) abort.
//
// Prepare makes the transaction's writes durable without deciding them:
// the DML records plus a PREPARE record are flushed to the WAL, and the
// row locks stay held, so the write set can survive a crash and still
// commit or vanish atomically with the coordinator's decision. Recovery
// rebuilds undecided prepared transactions as in-doubt (db.inDoubt) for
// the coordinator to resolve — nothing in-doubt is visible to readers or
// writers because the locks conceptually persist (recovery is
// single-threaded) and the writes were never applied.

// Prepare runs phase 1 for this participant: durably log the write set
// and a PREPARE record carrying the coordinator's global transaction id,
// the principal, and the per-table Merkle roots (so phase 2 after a crash
// can still build the ledger entry). The transaction stays open with its
// row locks held. A read-only participant prepares trivially.
func (db *DB) Prepare(tx *Tx, gid uint64) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.prepared {
		return fmt.Errorf("engine: transaction %d already prepared", tx.id)
	}
	if len(tx.writes) == 0 {
		tx.prepared = true
		tx.gid = gid
		db.preparedCount.Add(1)
		return nil
	}
	db.quiesce.RLock()
	defer db.quiesce.RUnlock()

	// The DML batch and the PREPARE record that ends it go out as one
	// frame; AppendBatch flushes a batch ending in RecPrepare, so the whole
	// write set is durable when it returns.
	recs := tx.encodeWrites()
	recs = append(recs, wal.Record{
		Type:    wal.RecPrepare,
		TxID:    tx.id,
		Payload: wal.EncodePrepare(wal.PreparePayload{Gid: gid, User: tx.user, Roots: tx.Roots}),
	})
	lsn, err := db.log.AppendBatch(recs)
	if err != nil {
		return fmt.Errorf("engine: prepare log: %w", err)
	}
	tx.prepareLSN = lsn
	tx.prepared = true
	tx.gid = gid
	db.preparedCount.Add(1)
	return nil
}

// CommitPrepared runs phase 2 (commit) for a prepared participant: the
// regular commit tail — sequence a commit timestamp, assign the ledger
// block/ordinal via the hook, log the COMMIT record, apply the writes,
// release the locks — with no DML records to log, because the PREPARE
// frame already carried them, and no trace: the coordinator's shard_commit
// span is the 2PC waterfall's view of this call. Returns the commit
// timestamp.
func (db *DB) CommitPrepared(tx *Tx) (int64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if !tx.prepared {
		return 0, fmt.Errorf("engine: transaction %d is not prepared", tx.id)
	}
	if tx.inDoubt {
		delete(db.inDoubt, tx.gid)
	}
	if len(tx.writes) == 0 {
		tx.done = true
		tx.releaseLocks()
		db.preparedCount.Add(-1)
		return db.LastCommitTS(), nil
	}
	ts, err := db.commitTail(tx, nil, db.obs.Timer(), nil)
	if err != nil {
		return 0, err
	}
	db.preparedCount.Add(-1)
	return ts, nil
}

// AbortPrepared runs phase 2 (abort) for a prepared participant: log an
// ABORT record so future recoveries drop the write set immediately, then
// discard the buffered writes and release the locks. Losing the abort
// record to a crash is harmless — the coordinator's presumed-abort rule
// reaches the same decision again.
func (db *DB) AbortPrepared(tx *Tx) error {
	if tx.done {
		return ErrTxDone
	}
	if !tx.prepared {
		return fmt.Errorf("engine: transaction %d is not prepared", tx.id)
	}
	if tx.inDoubt {
		delete(db.inDoubt, tx.gid)
	}
	if len(tx.writes) > 0 {
		db.quiesce.RLock()
		_, err := db.log.Append(wal.RecAbort, tx.id, nil)
		if err == nil {
			err = db.log.Flush()
		}
		db.quiesce.RUnlock()
		if err != nil {
			return fmt.Errorf("engine: abort-prepared log: %w", err)
		}
	}
	tx.done = true
	tx.releaseLocks()
	db.preparedCount.Add(-1)
	tx.writes = nil
	tx.overlays = nil
	db.m.rollbacks.Inc()
	return nil
}

// Gid returns the global transaction id assigned at Prepare (zero before).
func (tx *Tx) Gid() uint64 { return tx.gid }

// PreparedTxs returns the in-doubt transactions recovery reconstructed
// from the WAL — prepared but undecided when the log ended — ordered by
// global transaction id. The coordinator must resolve each with
// CommitPrepared or AbortPrepared before user traffic starts; until then
// Checkpoint refuses.
func (db *DB) PreparedTxs() []*Tx {
	out := make([]*Tx, 0, len(db.inDoubt))
	for _, tx := range db.inDoubt {
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].gid < out[j].gid })
	return out
}

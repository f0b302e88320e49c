package engine

import (
	"fmt"
	"sort"

	"sqlledger/internal/wal"
)

// Two-phase commit participant API. A cross-shard transaction is one
// engine.Tx per participating shard; the coordinator (internal/core's
// sharded path) drives each participant through Prepare and then, once its
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
	if _, err := db.log.AppendBatch(recs); err != nil {
		return fmt.Errorf("engine: prepare log: %w", err)
	}
	tx.prepared = true
	tx.gid = gid
	db.preparedCount.Add(1)
	return nil
}

// CommitPrepared runs phase 2 (commit) for a prepared participant. It is
// the tail of the regular commit pipeline — sequence a commit timestamp,
// assign the ledger block/ordinal via the hook, log the COMMIT record,
// apply the writes, release the locks — except the DML records were
// already logged at prepare time. Returns the commit timestamp.
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
	db.quiesce.RLock()
	defer db.quiesce.RUnlock()

	lap := db.obs.Timer()

	// Stage 1 — sequence (identical to Commit's).
	db.commitMu.Lock()
	now := db.nowNanos()
	if last := db.lastCommitTS.Load(); now <= last {
		now = last + 1
	}
	db.inflightMu.Lock()
	db.lastCommitTS.Store(now)
	db.inflight[now] = struct{}{}
	db.inflightMu.Unlock()

	var entry *wal.LedgerEntry
	if len(tx.Roots) > 0 && db.opts.Hook != nil {
		blockID, ordinal := db.opts.Hook.OnCommit(tx.id, now, tx.user, tx.Roots)
		entry = &wal.LedgerEntry{
			TxID:     tx.id,
			BlockID:  blockID,
			Ordinal:  ordinal,
			CommitTS: now,
			User:     tx.user,
			Roots:    tx.Roots,
		}
	}
	recs := []wal.Record{{
		Type:    wal.RecCommit,
		TxID:    tx.id,
		Payload: wal.EncodeCommit(wal.CommitPayload{CommitTS: now, User: tx.user, Entry: entry}),
	}}

	// Stages 2 and 3 — publish + durability wait.
	lap.Lap(db.m.stageSequence)
	var err error
	if db.committer != nil {
		ticket := db.committer.Enqueue(recs)
		db.commitMu.Unlock()
		lap.Lap(db.m.stagePublish)
		_, err = ticket.Wait()
		lap.Lap(db.m.stageWait)
	} else {
		_, err = db.log.AppendBatch(recs)
		db.commitMu.Unlock()
		lap.Lap(db.m.stagePublish)
	}
	if err != nil {
		// Same fail-stop stance as Commit: a burned ordinal surfaces in
		// verification; the timestamp is retired so the watermark moves on.
		db.markApplied(now)
		return 0, fmt.Errorf("engine: commit-prepared log: %w", err)
	}

	// Stage 4 — apply while still holding row locks.
	db.applyWrites(tx.writes, now)
	db.markApplied(now)
	tx.done = true
	tx.releaseLocks()
	db.preparedCount.Add(-1)
	lap.Lap(db.m.stageApply)
	db.m.commits.Inc()
	return now, nil
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

package core

import (
	"fmt"

	"sqlledger/internal/wal"
)

// The frame index: where in the log each ledger transaction's DML is. Since
// PR 20 a ledger DML hashes exactly the bytes it logs, so the one frame
// that logged a transaction's DML — its COMMIT frame — is enough to rebuild
// the Merkle trees it committed to (LedgerTable.frameTree), and a read
// receipt proves its rows from that frame instead of scanning tables. The
// index costs 8 bytes per ledger transaction, the frame's LSN by (block,
// ordinal), filled in as commit (LedgerHook.Logged) and redo (Recovered)
// learn the LSNs. The transactions older than the snapshot Open loaded are
// looked up in one pass over the log prefix the first time a receipt needs
// one of them, never at Open (DESIGN.md decision 22).

// frameReadHook, when a test sets it, runs before every frame read.
var frameReadHook func(txID uint64)

// noteFrame records that the DML of the transaction at (block, ord) is in
// the frame at lsn. An ordinal no block can have comes only
// from a rewritten log, and must not size the index.
func (db *DB) noteFrame(block uint64, ord uint32, lsn int64) {
	if ord >= db.opts.BlockSize {
		return
	}
	db.pmu.Lock()
	fs := db.frames[block]
	if n := int(ord) + 1; n > len(fs) {
		fs = append(fs, make([]int64, n-len(fs))...)
	}
	fs[ord] = lsn
	db.frames[block] = fs
	db.pmu.Unlock()
}

// frameOf returns the LSN noted for e's transaction, 0 if none is.
func (db *DB) frameOf(e *wal.LedgerEntry) int64 {
	db.pmu.Lock()
	defer db.pmu.Unlock()
	if fs := db.frames[e.BlockID]; int(e.Ordinal) < len(fs) {
		return fs[e.Ordinal]
	}
	return 0
}

// framesBefore notes the frames of the transactions committed before the
// snapshot Open loaded, in one pass over that prefix of the log, the first
// time it is called — and again only after a pass failed.
func (db *DB) framesBefore() error {
	db.prefixMu.Lock()
	defer db.prefixMu.Unlock()
	if db.prefixDone {
		return nil
	}
	err := db.edb.LedgerFramesBefore(func(e *wal.LedgerEntry, lsn int64) {
		db.noteFrame(e.BlockID, e.Ordinal, lsn)
	})
	db.prefixDone = err == nil
	return err
}

// txFrame reads the records of the frame that logged the DML of e's
// transaction.
func (db *DB) txFrame(e *wal.LedgerEntry) ([]wal.Record, error) {
	lsn := db.frameOf(e)
	if lsn == 0 {
		if err := db.framesBefore(); err != nil {
			return nil, fmt.Errorf("looking up log frames: %w", err)
		}
		if lsn = db.frameOf(e); lsn == 0 {
			return nil, fmt.Errorf("no log frame is known for it")
		}
	}
	if frameReadHook != nil {
		frameReadHook(e.TxID)
	}
	recs, err := db.edb.ReadFrame(lsn)
	if err == nil && recs[0].TxID != e.TxID {
		err = fmt.Errorf("the frame at LSN %d logged transaction %d", lsn, recs[0].TxID)
	}
	return recs, err
}

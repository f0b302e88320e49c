package core

import (
	"fmt"

	"sqlledger/internal/wal"
)

// The frame index: where in the log each ledger transaction's DML is.
// Since PR 20 a ledger DML hashes exactly the bytes it logs, so the one
// frame that logged a transaction's DML — its COMMIT frame, or a two-phase
// participant's PREPARE frame — is enough to rebuild the Merkle trees it
// committed to (LedgerTable.frameTree), and a read receipt proves its rows
// from that frame instead of scanning tables. The index costs 8 bytes per
// ledger transaction, the frame's LSN by (block, ordinal), filled in as
// commit (LedgerHook.Logged) and redo (Recovered) learn the LSNs. The
// transactions older than the snapshot Open loaded are looked up in one
// pass over the log prefix the first time a receipt needs one of them,
// never at Open (DESIGN.md decision 22).

// frameReadHook, when a test sets it, runs before every frame read.
var frameReadHook func(txID uint64)

// noteFrame records that the DML of the transaction at (block, ord) is in
// the frame at lsn. An ordinal no block of the shard can have comes only
// from a rewritten log, and must not size the index.
func (l *Shard) noteFrame(block uint64, ord uint32, lsn int64) {
	if ord >= l.opts.BlockSize {
		return
	}
	l.pmu.Lock()
	fs := l.frames[block]
	if n := int(ord) + 1; n > len(fs) {
		fs = append(fs, make([]int64, n-len(fs))...)
	}
	fs[ord] = lsn
	l.frames[block] = fs
	l.pmu.Unlock()
}

// frameOf returns the LSN noted for e's transaction, 0 if none is.
func (l *Shard) frameOf(e *wal.LedgerEntry) int64 {
	l.pmu.Lock()
	defer l.pmu.Unlock()
	if fs := l.frames[e.BlockID]; int(e.Ordinal) < len(fs) {
		return fs[e.Ordinal]
	}
	return 0
}

// framesBefore notes the frames of the transactions committed before the
// snapshot Open loaded, in one pass over that prefix of the log, the first
// time it is called — and again only after a pass failed.
func (l *Shard) framesBefore() error {
	l.prefixMu.Lock()
	defer l.prefixMu.Unlock()
	if l.prefixDone {
		return nil
	}
	err := l.edb.LedgerFramesBefore(func(e *wal.LedgerEntry, lsn int64) {
		l.noteFrame(e.BlockID, e.Ordinal, lsn)
	})
	l.prefixDone = err == nil
	return err
}

// txFrame reads the records of the frame that logged the DML of e's
// transaction.
func (l *Shard) txFrame(e *wal.LedgerEntry) ([]wal.Record, error) {
	lsn := l.frameOf(e)
	if lsn == 0 {
		if err := l.framesBefore(); err != nil {
			return nil, fmt.Errorf("looking up log frames: %w", err)
		}
		if lsn = l.frameOf(e); lsn == 0 {
			return nil, fmt.Errorf("no log frame is known for it")
		}
	}
	if frameReadHook != nil {
		frameReadHook(e.TxID)
	}
	recs, err := l.edb.ReadFrame(lsn)
	if err == nil && recs[0].TxID != e.TxID {
		err = fmt.Errorf("the frame at LSN %d logged transaction %d", lsn, recs[0].TxID)
	}
	return recs, err
}

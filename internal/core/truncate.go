package core

import (
	"fmt"
	"maps"
	"time"

	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// TruncateLedger deletes ledger history older than block beforeBlock
// (§5.2), bounding database growth while preserving verifiability of
// current data:
//
//  1. Verification runs first and must pass — truncation must never
//     destroy the evidence of an undetected tampering.
//  2. Every current ledger-table row whose digest lives in a block about
//     to be truncated is refreshed — rewritten under a fresh transaction,
//     moving its digest into a new block (the paper's "dummy update") so
//     current data stays cryptographically covered.
//  3. History rows whose deleting transaction is older than the cut are
//     deleted outright. History rows whose deleting transaction survives
//     are kept: they remain covered by the surviving transaction's Merkle
//     root (the delete-side hash spans every column), even though their
//     creating transaction is being truncated. Verification excuses the
//     dangling insert-side reference using the audited truncation record;
//     malicious deletion of a *surviving* entry is still caught by the
//     block-root check (invariant 3), so no protection is lost.
//  4. Transaction entries and blocks below the cut are deleted.
//  5. A truncation record — the cut point and the highest truncated
//     transaction id — is appended to the append-only truncation ledger
//     table, so the operation itself is audited (and tamper-evident).
func (l *Shard) TruncateLedger(beforeBlock uint64) error {
	rep, err := l.Verify(nil, VerifyOptions{})
	if err != nil {
		return err
	}
	if !rep.Ok() {
		return fmt.Errorf("core: refusing to truncate: verification failed:\n%s", rep)
	}
	l.closeMu.Lock()
	closed := l.closedThrough
	l.closeMu.Unlock()
	if int64(beforeBlock) > closed {
		return fmt.Errorf("core: cannot truncate before block %d: only %d blocks are closed", beforeBlock, closed+1)
	}

	// Which transactions live below the cut? (System table plus queue.)
	oldTx := make(map[uint64]bool)
	var maxTruncatedTx uint64
	note := func(txID, block uint64) {
		if block < beforeBlock {
			oldTx[txID] = true
			if txID > maxTruncatedTx {
				maxTruncatedTx = txID
			}
		}
	}
	l.sysTx.Scan(func(_ []byte, r sqltypes.Row) bool {
		note(uint64(r[0].Int()), uint64(r[1].Int()))
		return true
	})
	l.lmu.Lock()
	for _, e := range l.queue {
		note(e.TxID, e.BlockID)
	}
	l.lmu.Unlock()
	if len(oldTx) == 0 {
		return nil // nothing below the cut
	}

	// The paper's "dummy update": refresh current rows still anchored in
	// old transactions so their digests move into new transactions and
	// blocks. The refresh rewrites the version in place — deliberately
	// without a history row, which would just re-anchor in the old chain.
	for _, lt := range l.LedgerTables() {
		var refresh [][]byte
		lt.table.Scan(func(key []byte, full sqltypes.Row) bool {
			if oldTx[uint64(full[lt.startTxOrd].Int())] {
				refresh = append(refresh, append([]byte(nil), key...))
			}
			return true
		})
		if len(refresh) == 0 {
			continue
		}
		tx := l.begin("system")
		for _, key := range refresh {
			if err := tx.refreshRow(lt, key); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}

	// Delete history rows fully settled below the cut.
	for _, lt := range l.LedgerTables() {
		if lt.history == nil {
			continue
		}
		var victims [][]byte
		lt.history.Scan(func(key []byte, full sqltypes.Row) bool {
			if oldTx[uint64(full[lt.endTxOrd].Int())] {
				victims = append(victims, append([]byte(nil), key...))
			}
			return true
		})
		for _, k := range victims {
			if err := l.edb.TamperDeleteRow(lt.history, k, true); err != nil {
				return err
			}
		}
	}

	// Delete old transaction entries — from the queue, then the system
	// table — and old blocks. This is direct system-table surgery; the
	// truncation record below makes the operation auditable.
	l.lmu.Lock()
	kept := make([]*wal.LedgerEntry, 0, len(l.queue)) // resolveEntries may be walking the old one
	for _, e := range l.queue {
		if e.BlockID >= beforeBlock {
			kept = append(kept, e)
		}
	}
	l.queue = kept
	l.lmu.Unlock()
	l.pmu.Lock()
	maps.DeleteFunc(l.frames, func(b uint64, _ []int64) bool { return b < beforeBlock })
	maps.DeleteFunc(l.proven, func(b uint64, _ provenBlock) bool { return b < beforeBlock })
	l.pmu.Unlock()
	var txKeys [][]byte
	l.sysTx.Scan(func(key []byte, r sqltypes.Row) bool {
		if uint64(r[1].Int()) < beforeBlock {
			txKeys = append(txKeys, append([]byte(nil), key...))
		}
		return true
	})
	for _, k := range txKeys {
		if err := l.edb.TamperDeleteRow(l.sysTx, k, true); err != nil {
			return err
		}
	}
	var blockKeys [][]byte
	l.sysBlocks.Scan(func(key []byte, r sqltypes.Row) bool {
		if uint64(r[0].Int()) < beforeBlock {
			blockKeys = append(blockKeys, append([]byte(nil), key...))
		}
		return true
	})
	for _, k := range blockKeys {
		if err := l.edb.TamperDeleteRow(l.sysBlocks, k, true); err != nil {
			return err
		}
	}

	// Audit record, written through the ledger itself.
	tx := l.begin("system")
	defer tx.Rollback()
	if err := tx.Insert(l.truncations, sqltypes.Row{
		sqltypes.NewBigInt(int64(l.nextTruncationID())),
		sqltypes.NewBigInt(int64(beforeBlock)),
		sqltypes.NewBigInt(int64(maxTruncatedTx)),
		sqltypes.NewDateTime(time.Now()),
	}); err != nil {
		return err
	}
	return tx.Commit()
}

func (l *Shard) nextTruncationID() uint64 {
	var max uint64
	l.truncations.table.Scan(func(_ []byte, r sqltypes.Row) bool {
		if id := uint64(r[0].Int()); id > max {
			max = id
		}
		return true
	})
	return max + 1
}

// truncationInfo returns the highest truncation point and the highest
// truncated transaction id (both 0 when the ledger was never truncated),
// read from the audited truncation ledger table.
func (l *Shard) truncationInfo() (beforeBlock, maxTx uint64) {
	l.truncations.table.Scan(func(_ []byte, r sqltypes.Row) bool {
		if b := uint64(r[1].Int()); b > beforeBlock {
			beforeBlock = b
		}
		if m := uint64(r[2].Int()); m > maxTx {
			maxTx = m
		}
		return true
	})
	return beforeBlock, maxTx
}

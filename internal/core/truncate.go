package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
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
func (db *DB) TruncateLedger(beforeBlock uint64) error {
	rep, err := db.Verify(nil, VerifyOptions{})
	if err != nil {
		return err
	}
	if !rep.Ok() {
		return fmt.Errorf("core: refusing to truncate: verification failed:\n%s", rep)
	}
	db.closeMu.Lock()
	closed := db.closedThrough
	db.closeMu.Unlock()
	if int64(beforeBlock) < 0 || int64(beforeBlock) > closed {
		return fmt.Errorf("core: cannot truncate before block %d: only %d blocks are closed", beforeBlock, closed+1)
	}

	// Which transactions live below the cut? Their rows and the blocks'
	// must decode before anything is deleted: an attacker may have edited
	// them since Verify read them.
	byTx, _, unreadable := db.entries.all()
	oldTx := make(map[uint64]bool)
	var maxTruncatedTx uint64
	for txID, e := range byTx {
		if e.BlockID < beforeBlock {
			oldTx[txID] = true
			maxTruncatedTx = max(maxTruncatedTx, txID)
		}
	}
	for b, err := range unreadable {
		if b < beforeBlock {
			return fmt.Errorf("core: refusing to truncate: %w", err)
		}
	}
	blockKeys, err := db.blocksBefore(beforeBlock)
	if err != nil {
		return fmt.Errorf("core: refusing to truncate: %w", err)
	}
	trunc, err := db.truncationInfo()
	if err != nil {
		return fmt.Errorf("core: refusing to truncate: %w", err)
	}
	if len(oldTx) == 0 {
		return nil // nothing below the cut
	}
	refresh, victims, err := db.rowsOfTx(oldTx)
	if err != nil {
		return fmt.Errorf("core: refusing to truncate: %w", err)
	}

	// The paper's "dummy update": refresh current rows still anchored in
	// old transactions so their digests move into new transactions and
	// blocks. The refresh rewrites the version in place — deliberately
	// without a history row, which would just re-anchor in the old chain.
	for _, lt := range db.LedgerTables() {
		if len(refresh[lt]) == 0 {
			continue
		}
		tx := db.Begin("system")
		for _, key := range refresh[lt] {
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
	for _, lt := range db.LedgerTables() {
		for _, k := range victims[lt] {
			if err := db.edb.TamperDeleteRow(lt.history, k, true); err != nil {
				return err
			}
		}
	}

	// Delete old transaction entries and old blocks. This is direct
	// system-table surgery; the truncation record below makes the
	// operation auditable.
	if err := db.entries.dropBefore(beforeBlock); err != nil {
		return err
	}
	db.pmu.Lock()
	maps.DeleteFunc(db.frames, func(b uint64, _ []int64) bool { return b < beforeBlock })
	maps.DeleteFunc(db.proven, func(b uint64, _ provenBlock) bool { return b < beforeBlock })
	db.pmu.Unlock()
	for _, k := range blockKeys {
		if err := db.edb.TamperDeleteRow(db.sysBlocks, k, true); err != nil {
			return err
		}
	}

	// Audit record, written through the ledger itself.
	tx := db.Begin("system")
	defer tx.Rollback()
	if err := tx.Insert(db.truncations, sqltypes.Row{
		sqltypes.NewBigInt(int64(trunc.lastID + 1)),
		sqltypes.NewBigInt(int64(beforeBlock)),
		sqltypes.NewBigInt(int64(maxTruncatedTx)),
		sqltypes.NewDateTime(time.Now()),
	}); err != nil {
		return err
	}
	return tx.Commit()
}

// rowsOfTx returns, per ledger table, the keys of the current rows that a
// transaction in txs created, which truncation refreshes, and of the
// history rows one ended, which it deletes; or the error naming each row
// that is no row, which an attacker may have left there since Verify read
// it.
func (db *DB) rowsOfTx(txs map[uint64]bool) (refresh, victims map[*LedgerTable][][]byte, err error) {
	refresh, victims = make(map[*LedgerTable][][]byte), make(map[*LedgerTable][][]byte)
	var ts [1]sqltypes.Value
	scan := func(t *engine.Table, ord int) (keys [][]byte) {
		cols := t.Columns()
		t.ScanRangeStored(nil, nil, func(key, stored []byte) bool {
			derr := sqltypes.CheckRow(stored)
			if derr == nil {
				derr = sqltypes.DecodeColumns(ts[:], stored, []int{ord}, cols)
			}
			if derr != nil {
				err = errors.Join(err, fmt.Errorf("core: %s row %s does not decode: %w", t.Name(), keyName(key), derr))
			} else if txs[uint64(ts[0].Int())] {
				keys = append(keys, key)
			}
			return true
		})
		return keys
	}
	for _, lt := range db.LedgerTables() {
		refresh[lt] = scan(lt.table, lt.startTxOrd)
		if lt.history != nil {
			victims[lt] = scan(lt.history, lt.endTxOrd)
		}
	}
	return refresh, victims, err
}

// blocksBefore returns the sys_ledger_blocks keys of the blocks below
// before, or the error naming each of their rows that does not decode.
func (db *DB) blocksBefore(before uint64) (keys [][]byte, err error) {
	db.sysBlocks.ScanRangeStored(nil, blockKey(int64(before)), func(key, stored []byte) bool {
		if _, rerr := sysRow(nil, stored, sysBlocksSchema); rerr != nil {
			err = errors.Join(err, fmt.Errorf("core: block %s: its %s row does not decode: %w", keyName(key), sysBlocksName, rerr))
		}
		keys = append(keys, bytes.Clone(key))
		return true
	})
	return keys, err
}

// truncation is what the audited truncation ledger table records: the
// highest truncation point and the highest truncated transaction id (both
// 0 when the ledger was never truncated), and the highest truncation id.
type truncation struct{ before, maxTx, lastID uint64 }

// truncationInfo reads the truncation ledger table from its stored bytes.
// A row that does not decode — bytes an attacker who edits storage left
// behind — is left out and named in the error.
func (db *DB) truncationInfo() (t truncation, err error) {
	schema := db.truncations.table.Schema()
	var r sqltypes.Row
	db.truncations.table.ScanRangeStored(nil, nil, func(key, stored []byte) bool {
		var rerr error
		if r, rerr = sysRow(r, stored, schema); rerr != nil {
			err = errors.Join(err, fmt.Errorf("truncation %s: its %s row does not decode: %w", keyName(key), sysTruncationsN, rerr))
			return true
		}
		t.lastID = max(t.lastID, uint64(r[0].Int()))
		t.before = max(t.before, uint64(r[1].Int()))
		t.maxTx = max(t.maxTx, uint64(r[2].Int()))
		return true
	})
	return t, err
}

// truncationFinding reports the rows truncationInfo could not read as
// what they are, row versions of a ledger table that are no row.
func truncationFinding(err error) finding {
	return finding{invariant: 4, block: -1, table: sysTruncationsN, detail: err.Error()}
}

package core

import (
	"bytes"
	"fmt"

	"sqlledger/internal/engine"
)

// Recovery from tampering (§3.7). The paper does not automate this — it
// describes the manual procedure — but the mechanical part can be guided:
// given a restored backup that verifies cleanly, rows of the production
// database that diverge from the backup can be identified and repaired in
// place. This implements the paper's first category (tampered data that
// does not affect how future transactions execute): the production ledger
// itself was never forked, so after repairing the damaged rows the
// original digests verify again. The second category (tampered data that
// later transactions read) requires re-executing transactions and is left
// to the application, as in the paper.

// RepairAction describes one divergence found (and optionally fixed)
// between the tampered database and the verified backup.
type RepairAction struct {
	Table string
	// Kind is "restored" (row overwritten from backup), "removed"
	// (injected row deleted) or "reinserted" (deleted row brought back).
	Kind string
	Key  string
}

// RepairReport summarizes a repair run.
type RepairReport struct {
	Actions []RepairAction
	// BackupVerified confirms the backup passed verification before any
	// repair was attempted.
	BackupVerified bool
}

func (r *RepairReport) String() string {
	s := fmt.Sprintf("repair: %d actions (backup verified: %v)", len(r.Actions), r.BackupVerified)
	for _, a := range r.Actions {
		s += fmt.Sprintf("\n  %-10s %s %s", a.Kind, a.Table, a.Key)
	}
	return s
}

// RepairFromBackup repairs db in place using backup as the reference
// (§3.7): the backup is verified first with the provided digests and must
// pass; then, for every ledger table (matched by table id), rows that
// were modified, injected or deleted in db are restored to the backup's
// state. Ledger system tables (transactions, blocks) are repaired the
// same way, which un-forks any overwritten chain state. If dryRun is set,
// divergences are reported but not fixed.
//
// After a successful repair, rerun Verify on db: it should pass with the
// same digests, because the repaired data is exactly the data the digests
// were computed over. Rows legitimately written to db AFTER the backup was
// taken will be reported as divergences too — take a fresh backup (or use
// digests covering the tail) before repairing a live database.
func RepairFromBackup(db, backup *DB, digests []Digest, dryRun bool) (*RepairReport, error) {
	rep := &RepairReport{}
	backupReport, err := backup.Verify(digests, VerifyOptions{})
	if err != nil {
		return nil, err
	}
	if !backupReport.Ok() {
		return nil, fmt.Errorf("core: backup does not verify; refusing to repair from it:\n%s", backupReport)
	}
	rep.BackupVerified = true

	// Pair tables by id: ledger tables, their history tables, and the
	// ledger system tables.
	for _, lt := range db.LedgerTables() {
		blt, err := backup.edb.TableByID(lt.ID())
		if err != nil {
			return nil, fmt.Errorf("core: table %s (id %d) missing from backup: %w", lt.Name(), lt.ID(), err)
		}
		if err := repairTable(db, rep, lt.Name(), lt.table, blt, dryRun); err != nil {
			return nil, err
		}
		if lt.history != nil {
			bh, err := backup.edb.TableByID(lt.history.ID())
			if err != nil {
				return nil, fmt.Errorf("core: history table of %s missing from backup: %w", lt.Name(), err)
			}
			if err := repairTable(db, rep, lt.history.Name(), lt.history, bh, dryRun); err != nil {
				return nil, err
			}
		}
	}
	for _, pair := range []struct {
		name string
		cur  uint32
	}{{sysTxName, db.entries.table.ID()}, {sysBlocksName, db.sysBlocks.ID()}, {sysViewsName, db.sysViews.ID()}} {
		cur, err := db.edb.TableByID(pair.cur)
		if err != nil {
			return nil, err
		}
		bak, err := backup.edb.TableByID(pair.cur)
		if err != nil {
			return nil, fmt.Errorf("core: system table %s missing from backup: %w", pair.name, err)
		}
		if err := repairTable(db, rep, pair.name, cur, bak, dryRun); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// repairTable diffs two tables by clustered key and reconciles db's copy
// to match the backup's. Both sides are read and compared as stored bytes,
// and a row is restored from the backup's bytes, so a row whose bytes are
// no row at all is repaired like any other.
func repairTable(db *DB, rep *RepairReport, name string, et, bak *engine.Table, dryRun bool) error {
	collect := func(t *engine.Table) map[string][]byte {
		m := make(map[string][]byte)
		t.ScanRangeStored(nil, nil, func(k, stored []byte) bool {
			m[string(k)] = stored
			return true
		})
		return m
	}
	curRows := collect(et)
	bakRows := collect(bak)

	for k, b := range bakRows {
		c, present := curRows[k]
		if present && bytes.Equal(c, b) {
			continue
		}
		kind := "restored"
		if !present {
			kind = "reinserted"
		}
		rep.Actions = append(rep.Actions, RepairAction{Table: name, Kind: kind, Key: fmt.Sprintf("%x", k)})
		if !dryRun {
			if err := db.edb.TamperPutStoredRow(et, []byte(k), b); err != nil {
				return fmt.Errorf("core: repair row %x of %s: %w", k, name, err)
			}
		}
	}
	for k := range curRows {
		if _, present := bakRows[k]; !present {
			rep.Actions = append(rep.Actions, RepairAction{Table: name, Kind: "removed", Key: fmt.Sprintf("%x", k)})
			if !dryRun {
				if err := db.edb.TamperDeleteRow(et, []byte(k), true); err != nil {
					return fmt.Errorf("core: remove injected row from %s: %w", name, err)
				}
			}
		}
	}
	return nil
}

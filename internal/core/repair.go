package core

import (
	"fmt"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
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

// RepairFromBackup repairs l in place using backup as the reference
// (§3.7): the backup is verified first with the provided digests and must
// pass; then, for every ledger table (matched by table id), rows that
// were modified, injected or deleted in l are restored to the backup's
// state. Ledger system tables (transactions, blocks) are repaired the
// same way, which un-forks any overwritten chain state. If dryRun is set,
// divergences are reported but not fixed.
//
// After a successful repair, rerun Verify on l: it should pass with the
// same digests, because the repaired data is exactly the data the digests
// were computed over. Rows legitimately written to l AFTER the backup was
// taken will be reported as divergences too — take a fresh backup (or use
// digests covering the tail) before repairing a live database.
//
// Both databases must have one shard (ErrMultiShard otherwise): repair
// pairs tables by id and rows by key within one chain; repair a shard of
// a multi-shard database from that shard's backup directory.
func RepairFromBackup(db, backupDB *DB, digests []Digest, dryRun bool) (*RepairReport, error) {
	l, err := db.single("RepairFromBackup")
	if err != nil {
		return nil, err
	}
	backup, err := backupDB.single("RepairFromBackup")
	if err != nil {
		return nil, err
	}
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
	for _, lt := range l.LedgerTables() {
		blt, err := backup.edb.TableByID(lt.ID())
		if err != nil {
			return nil, fmt.Errorf("core: table %s (id %d) missing from backup: %w", lt.Name(), lt.ID(), err)
		}
		if err := repairTable(l, rep, lt.Name(), lt.table, blt, dryRun); err != nil {
			return nil, err
		}
		if lt.history != nil {
			bh, err := backup.edb.TableByID(lt.history.ID())
			if err != nil {
				return nil, fmt.Errorf("core: history table of %s missing from backup: %w", lt.Name(), err)
			}
			if err := repairTable(l, rep, lt.history.Name(), lt.history, bh, dryRun); err != nil {
				return nil, err
			}
		}
	}
	for _, pair := range []struct {
		name string
		cur  uint32
	}{{sysTxName, l.sysTx.ID()}, {sysBlocksName, l.sysBlocks.ID()}, {sysViewsName, l.sysViews.ID()}} {
		cur, err := l.edb.TableByID(pair.cur)
		if err != nil {
			return nil, err
		}
		bak, err := backup.edb.TableByID(pair.cur)
		if err != nil {
			return nil, fmt.Errorf("core: system table %s missing from backup: %w", pair.name, err)
		}
		if err := repairTable(l, rep, pair.name, cur, bak, dryRun); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// repairTable diffs two tables by clustered key and reconciles l's copy
// to match the backup's.
func repairTable(l *Shard, rep *RepairReport, name string, et, bak *engine.Table, dryRun bool) error {
	type entry struct {
		key []byte
		row sqltypes.Row
	}
	collect := func(t *engine.Table) map[string]entry {
		m := make(map[string]entry)
		t.Scan(func(k []byte, r sqltypes.Row) bool {
			m[string(k)] = entry{key: append([]byte(nil), k...), row: r.Clone()}
			return true
		})
		return m
	}
	curRows := collect(et)
	bakRows := collect(bak)

	for k, b := range bakRows {
		c, present := curRows[k]
		switch {
		case !present:
			rep.Actions = append(rep.Actions, RepairAction{Table: name, Kind: "reinserted", Key: fmt.Sprintf("%x", b.key)})
			if !dryRun {
				if err := l.edb.TamperInsertRowAt(et, b.key, b.row, true); err != nil {
					return fmt.Errorf("core: reinsert into %s: %w", name, err)
				}
			}
		case !c.row.Equal(b.row):
			rep.Actions = append(rep.Actions, RepairAction{Table: name, Kind: "restored", Key: fmt.Sprintf("%x", b.key)})
			if !dryRun {
				if err := l.edb.TamperUpdateRow(et, b.key, func(sqltypes.Row) sqltypes.Row {
					return b.row.Clone()
				}, true); err != nil {
					return fmt.Errorf("core: restore row in %s: %w", name, err)
				}
			}
		}
	}
	for k, c := range curRows {
		if _, present := bakRows[k]; !present {
			rep.Actions = append(rep.Actions, RepairAction{Table: name, Kind: "removed", Key: fmt.Sprintf("%x", c.key)})
			if !dryRun {
				if err := l.edb.TamperDeleteRow(et, c.key, true); err != nil {
					return fmt.Errorf("core: remove injected row from %s: %w", name, err)
				}
			}
		}
	}
	return nil
}

package core

import (
	"errors"
	"slices"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// checkFrames rebuilds, for every ledger transaction, each ledger table's
// tree from the one frame that logged the transaction's DML, and requires
// the roots its ledger entry recorded: a root for exactly the tables the
// frame has row versions of, and the same root. Returns the transactions
// checked, and how many of them were system transactions writing to table.
func checkFrames(t *testing.T, db *DB, table string) (n, system int) {
	t.Helper()
	byTx, _, _ := db.entries.all()
	for _, e := range byTx {
		recs, err := db.txFrame(e)
		if err != nil {
			t.Fatalf("transaction %d: %v", e.TxID, err)
		}
		for _, lt := range db.LedgerTables() {
			leaves, root, err := lt.frameTree(e.TxID, recs)
			want, has := recordedRoot(e, lt.ID())
			if err != nil || has != (len(leaves) > 0) || (has && root != want) {
				t.Fatalf("transaction %d table %s: %d leaves, root %s, recorded %s (%v), err %v",
					e.TxID, lt.Name(), len(leaves), root, want, has, err)
			}
			if has && e.User == "system" && lt.Name() == table {
				system++
			}
		}
		n++
	}
	return n, system
}

// TestFrameSufficiency establishes that one transaction's log frame is
// enough to recompute its Merkle roots, over a scripted history holding
// every shape of write: inserts, updates, deletes, an update and a delete
// of the transaction's own insert, a key updated twice, a savepoint
// rollback, an added and a dropped column between commits, and the row
// refresh of a truncation. The frames are found as commit noted them, then
// after a restart as redo noted them (after the checkpoint) and the prefix
// pass found them (before it). The database is one shard, as the
// subtest's name says.
func TestFrameSufficiency(t *testing.T) { t.Run("shards-1", frameSufficiency) }

func frameSufficiency(t *testing.T) {
	dir := t.TempDir()
	db := openBank(t, dir)
	lt, err := db.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	step := func(ops func(tx *Tx) error) {
		t.Helper()
		tx := db.Begin("u")
		if err := ops(tx); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	step(func(tx *Tx) error {
		var errs []error
		for i := 0; i < 8; i++ {
			errs = append(errs, tx.Insert(lt, account(acctName(i), int64(i))))
		}
		return errors.Join(errs...)
	})
	step(func(tx *Tx) error {
		return errors.Join(tx.Update(lt, account(acctName(0), 100)), tx.Update(lt, account(acctName(1), 101)),
			tx.Delete(lt, sqltypes.NewNVarChar(acctName(2))))
	})
	step(func(tx *Tx) error {
		return errors.Join(tx.Insert(lt, account("own-1", 1)), tx.Update(lt, account("own-1", 2)),
			tx.Insert(lt, account("own-2", 1)), tx.Delete(lt, sqltypes.NewNVarChar("own-2")),
			tx.Update(lt, account(acctName(3), 30)), tx.Update(lt, account(acctName(3), 31)))
	})
	step(func(tx *Tx) error {
		err := tx.Update(lt, account(acctName(4), 40))
		sp := tx.Savepoint()
		return errors.Join(err, tx.Update(lt, account(acctName(5), 50)), tx.Delete(lt, sqltypes.NewNVarChar(acctName(6))),
			tx.Insert(lt, account("rolled-back", 1)), tx.RollbackTo(sp), tx.Update(lt, account(acctName(7), 70)))
	})
	if err := db.AddColumn(lt, sqltypes.NullableCol("tier", sqltypes.TypeBigInt)); err != nil {
		t.Fatal(err)
	}
	tiered := func(name string, bal, tier int64) sqltypes.Row {
		return append(account(name, bal), sqltypes.NewBigInt(tier))
	}
	step(func(tx *Tx) error {
		return errors.Join(tx.Update(lt, tiered(acctName(0), 200, 1)), tx.Insert(lt, tiered("tiered", 1, 2)))
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropColumn(lt, "tier"); err != nil {
		t.Fatal(err)
	}
	step(func(tx *Tx) error {
		return errors.Join(tx.Update(lt, account("tiered", 5)), tx.Delete(lt, sqltypes.NewNVarChar(acctName(3))))
	})
	before, _ := checkFrames(t, db, "accounts")

	db.Close()
	db = openBank(t, dir)
	defer db.Close()
	if db.prefixDone {
		t.Fatal("the log prefix was read at Open")
	}
	if after, _ := checkFrames(t, db, "accounts"); after != before {
		t.Fatalf("%d transactions checked after the restart, %d before", after, before)
	}

	// Truncate the chain below its last closed block: the current
	// rows anchored in older blocks are refreshed by a transaction
	// of their own.
	if _, err := db.GenerateDigest(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("u")
	if err := tx.Insert(lt, account("late", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if _, err := db.GenerateDigest(); err != nil {
		t.Fatal(err)
	}
	db.closeMu.Lock()
	cut := uint64(db.closedThrough)
	db.closeMu.Unlock()
	if err := db.TruncateLedger(cut); err != nil {
		t.Fatal(err)
	}
	if _, refreshed := checkFrames(t, db, "accounts"); refreshed < 1 {
		t.Fatalf("%d refresh transactions checked, want one", refreshed)
	}
}

// TestEntriesOfBlockBinarySearch pins the binary search over the queue to
// a linear filter of it plus the system table — while every entry is
// queued, after a checkpoint drained some of them, and after a reopen
// re-queued the rest from the log.
func TestEntriesOfBlockBinarySearch(t *testing.T) {
	dir := t.TempDir()
	db := openLedgerAt(t, dir, 3)
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	linear := func(l *DB, block uint64) []*wal.LedgerEntry {
		byTx, _, _ := l.entries.all()
		var out []*wal.LedgerEntry
		for _, e := range byTx {
			if e.BlockID == block {
				out = append(out, e)
			}
		}
		slices.SortFunc(out, func(a, b *wal.LedgerEntry) int { return int(a.Ordinal) - int(b.Ordinal) })
		return out
	}
	check := func(db *DB, when string) {
		t.Helper()
		l := db
		last, _, _ := l.entries.position()
		for b := uint64(0); b <= last+1; b++ {
			got, err := l.entries.ofBlock(b)
			want := linear(l, b)
			if err != nil || len(got) != len(want) {
				t.Fatalf("%s, block %d: %d entries (%v), want %d", when, b, len(got), err, len(want))
			}
			for i := range got {
				if got[i].TxID != want[i].TxID || got[i].Ordinal != uint32(i) {
					t.Fatalf("%s, block %d ordinal %d: transaction %d, want %d", when, b, i, got[i].TxID, want[i].TxID)
				}
			}
		}
	}
	for i := 0; i < 10; i++ {
		commitOne(t, db, lt, acctName(i))
	}
	check(db, "all queued")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 17; i++ {
		commitOne(t, db, lt, acctName(i))
	}
	check(db, "after a drain")
	db.Close()
	db = openLedgerAt(t, dir, 3)
	check(db, "after a reopen")
}

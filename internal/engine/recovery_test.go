package engine

import (
	"os"
	"path/filepath"
	"testing"

	"sqlledger/internal/sqltypes"
)

// TestCrashTornWALTail simulates a crash that tears the last WAL record:
// the torn tail is discarded, everything before it survives.
func TestCrashTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "safe"))
	commit(t, db, tx)
	db.Close()

	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half a record header: a crash mid-write.
	f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	db2 := openDBAt(t, dir)
	tab2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.RowCount() != 1 {
		t.Fatalf("rows = %d", tab2.RowCount())
	}
	// The database keeps working: new commits append cleanly.
	tx = db2.Begin("u")
	tx.Insert(tab2, kv(2, "after-crash"))
	commit(t, db2, tx)
	db2.Close()
	db3 := openDBAt(t, dir)
	tab3, _ := db3.Table("t")
	if tab3.RowCount() != 2 {
		t.Fatalf("rows after second recovery = %d", tab3.RowCount())
	}
}

// TestCrashDuringBatchLosesWholeTransaction: if the WAL tears in the
// middle of a transaction's batch (before its COMMIT record), recovery
// discards the whole transaction.
func TestCrashDuringBatchLosesWholeTransaction(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "committed"))
	commit(t, db, tx)
	sizeAfterFirst := db.log.Size()
	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "torn-1"))
	tx.Insert(tab, kv(3, "torn-2"))
	commit(t, db, tx)
	db.Close()

	// Cut the log in the middle of the second transaction's batch —
	// after its first DML record, before the COMMIT.
	walPath := filepath.Join(dir, "wal.log")
	st, _ := os.Stat(walPath)
	cut := sizeAfterFirst + (st.Size()-sizeAfterFirst)/2
	if err := os.Truncate(walPath, cut); err != nil {
		t.Fatal(err)
	}

	db2 := openDBAt(t, dir)
	tab2, _ := db2.Table("t")
	if tab2.RowCount() != 1 {
		t.Fatalf("rows = %d: a torn transaction must be atomic", tab2.RowCount())
	}
	if _, ok := tab2.getAt(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(2)), latest, nil); ok {
		t.Fatal("half of a torn transaction survived")
	}
}

// TestCorruptSnapshotFallsBack: a corrupted newest snapshot is skipped;
// recovery falls back to replaying more WAL (here: from the beginning).
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	commit(t, db, tx)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "y"))
	commit(t, db, tx)
	db.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.log"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %v", snaps)
	}
	b, _ := os.ReadFile(snaps[0])
	b[len(b)/2] ^= 0xFF
	os.WriteFile(snaps[0], b, 0o644)

	db2 := openDBAt(t, dir)
	tab2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.RowCount() != 2 {
		t.Fatalf("rows after fallback recovery = %d", tab2.RowCount())
	}
}

// TestRepeatedCheckpointReopenCycles stresses the checkpoint/recover loop.
func TestRepeatedCheckpointReopenCycles(t *testing.T) {
	dir := t.TempDir()
	total := 0
	for cycle := 0; cycle < 5; cycle++ {
		db := openDBAt(t, dir)
		var tab *Table
		if cycle == 0 {
			tab = mustCreate(t, db, "t", kvSchema())
		} else {
			var err error
			tab, err = db.Table("t")
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			tx := db.Begin("u")
			tx.Insert(tab, kv(int64(cycle*100+i), "v"))
			commit(t, db, tx)
			total++
		}
		if cycle%2 == 0 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if tab.RowCount() != total {
			t.Fatalf("cycle %d: rows = %d, want %d", cycle, tab.RowCount(), total)
		}
		db.Close()
	}
}

// TestMultipleSnapshotsNewestWins checks that recovery picks the newest
// snapshot (shortest replay) of the two that three checkpoints leave.
func TestMultipleSnapshotsNewestWins(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	for i := 0; i < 3; i++ {
		tx := db.Begin("u")
		tx.Insert(tab, kv(int64(i), "v"))
		commit(t, db, tx)
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.log"))
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	db2 := openDBAt(t, dir)
	tab2, _ := db2.Table("t")
	if tab2.RowCount() != 3 {
		t.Fatalf("rows = %d", tab2.RowCount())
	}
}

// TestRecoveryWithAllSnapshotsCorrupt falls back to a full WAL replay.
func TestRecoveryWithAllSnapshotsCorrupt(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	commit(t, db, tx)
	db.Checkpoint()
	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "y"))
	commit(t, db, tx)
	db.Checkpoint()
	db.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.log"))
	for _, s := range snaps {
		os.Truncate(s, 10)
	}
	db2 := openDBAt(t, dir)
	tab2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.RowCount() != 2 {
		t.Fatalf("rows = %d", tab2.RowCount())
	}
}

// TestRedoAllocations: redo copies a replayed heap row once, into its
// chunk's pages. The record's key and row are views of the log frame, and
// the read-ahead hands records over by value, so replaying a log of heap
// inserts allocates per frame and per transaction, not per record — with
// the read-ahead and without. A clone of the key and of the row, and a
// decoded image on the heap, would be three objects a record.
func TestRedoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "h", footprintSchema(false))
	const txs, rows = 40, 250
	for i := int64(0); i < txs; i++ {
		tx := db.Begin("u")
		for j := int64(0); j < rows; j++ {
			if _, err := tx.Insert(tab, footprintRow(i*rows+j)); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, db, tx)
	}
	db.Close()
	const records = txs * (rows + 1) // the inserts and a COMMIT each
	for _, workers := range []int{1, 2} {
		allocs := testing.AllocsPerRun(1, func() {
			db, err := Open(Options{Dir: dir, RecoveryWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if h, err := db.Table("h"); err != nil || h.RowCount() != txs*rows {
				t.Fatalf("replay restored table h (%v) with the wrong rows", err)
			}
			db.Close()
		})
		t.Logf("%d recovery workers: opening a log of %d records allocates %.0f objects, %.3f a record", workers, records, allocs, allocs/records)
		if allocs/records >= 0.2 {
			t.Errorf("%d recovery workers: replay allocates %.3f objects a record, want < 0.2", workers, allocs/records)
		}
	}
}

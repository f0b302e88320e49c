package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

func openTestDB(t *testing.T) *DB {
	t.Helper()
	return openDBAt(t, t.TempDir())
}

func openDBAt(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, LockTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func kvSchema() *sqltypes.Schema {
	return sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("k", sqltypes.TypeBigInt),
		sqltypes.Col("v", sqltypes.TypeNVarChar),
	}, "k")
}

func mustCreate(t *testing.T, db *DB, name string, s *sqltypes.Schema) *Table {
	t.Helper()
	tab, err := db.CreateTable(CreateTableSpec{Name: name, Schema: s})
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	return tab
}

func commit(t *testing.T, db *DB, tx *Tx) {
	t.Helper()
	if _, err := db.Commit(tx); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func kv(k int64, v string) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewBigInt(k), sqltypes.NewNVarChar(v)}
}

func TestBasicCRUD(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())

	tx := db.Begin("u")
	if _, err := tx.Insert(tab, kv(1, "one")); err != nil {
		t.Fatal(err)
	}
	// Read own write.
	if r, ok, _ := tx.Get(tab, sqltypes.NewBigInt(1)); !ok || r[1].Str != "one" {
		t.Fatal("cannot read own insert")
	}
	commit(t, db, tx)

	tx = db.Begin("u")
	if _, err := tx.Update(tab, kv(1, "uno")); err != nil {
		t.Fatal(err)
	}
	if before, err := tx.Delete(tab, sqltypes.NewBigInt(1)); err != nil || before[1].Str != "uno" {
		t.Fatalf("delete = %v, %v", before, err)
	}
	if _, ok, _ := tx.Get(tab, sqltypes.NewBigInt(1)); ok {
		t.Fatal("row visible after own delete")
	}
	commit(t, db, tx)
	if tab.RowCount() != 0 {
		t.Fatalf("rowcount = %d", tab.RowCount())
	}
}

func TestErrors(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	if _, err := tx.Insert(tab, kv(1, "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tab, kv(1, "dup")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if _, err := tx.Delete(tab, sqltypes.NewBigInt(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing delete: %v", err)
	}
	if _, err := tx.Update(tab, kv(9, "x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing update: %v", err)
	}
	if _, err := tx.Insert(tab, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewNVarChar("x")}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	commit(t, db, tx)
	if _, err := db.Commit(tx); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit: %v", err)
	}
}

func TestIsolationUncommittedInvisible(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx1 := db.Begin("w")
	if _, err := tx1.Insert(tab, kv(1, "hidden")); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin("r")
	if _, ok, _ := tx2.Get(tab, sqltypes.NewBigInt(1)); ok {
		t.Fatal("uncommitted write visible to another tx")
	}
	commit(t, db, tx1)
	if r, ok, _ := tx2.Get(tab, sqltypes.NewBigInt(1)); !ok || r[1].Str != "hidden" {
		t.Fatal("committed write not visible (read committed)")
	}
	tx2.Rollback()
}

func TestRollbackDiscardsWrites(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	tx.Rollback()
	if tab.RowCount() != 0 {
		t.Fatal("rollback left rows behind")
	}
	// Lock must be free for the next tx.
	tx2 := db.Begin("u")
	if _, err := tx2.Insert(tab, kv(1, "y")); err != nil {
		t.Fatalf("lock not released by rollback: %v", err)
	}
	commit(t, db, tx2)
}

func TestSavepointPartialRollback(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "keep"))
	sp := tx.Savepoint()
	tx.Insert(tab, kv(2, "drop"))
	tx.Insert(tab, kv(3, "drop"))
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tx.Get(tab, sqltypes.NewBigInt(2)); ok {
		t.Fatal("rolled-back write still visible in tx")
	}
	if _, ok, _ := tx.Get(tab, sqltypes.NewBigInt(1)); !ok {
		t.Fatal("pre-savepoint write lost")
	}
	// Savepoint token is reusable.
	tx.Insert(tab, kv(4, "again"))
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	tx.Insert(tab, kv(5, "final"))
	commit(t, db, tx)
	if tab.RowCount() != 2 {
		t.Fatalf("rowcount = %d, want 2 (keys 1 and 5)", tab.RowCount())
	}
	if _, ok := tab.getAt(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(5)), latest, nil); !ok {
		t.Fatal("post-rollback write lost")
	}
}

func TestSavepointSeqRestore(t *testing.T) {
	db := openTestDB(t)
	tx := db.Begin("u")
	tx.NextSeq()
	tx.NextSeq()
	sp := tx.Savepoint()
	tx.NextSeq()
	tx.NextSeq()
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	if got := tx.NextSeq(); got != 3 {
		t.Fatalf("seq after rollback = %d, want 3", got)
	}
	tx.Rollback()
}

func TestInvalidSavepoint(t *testing.T) {
	db := openTestDB(t)
	tx := db.Begin("u")
	if err := tx.RollbackTo(0); err == nil {
		t.Fatal("rollback to nonexistent savepoint accepted")
	}
	tx.Rollback()
}

func TestLockConflictTimeout(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx0 := db.Begin("setup")
	tx0.Insert(tab, kv(1, "x"))
	commit(t, db, tx0)

	tx1 := db.Begin("a")
	if _, err := tx1.Update(tab, kv(1, "a")); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin("b")
	if _, err := tx2.Update(tab, kv(1, "b")); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("expected lock timeout, got %v", err)
	}
	tx2.Rollback()
	commit(t, db, tx1)
	// After tx1 commits, the lock is free.
	tx3 := db.Begin("c")
	if _, err := tx3.Update(tab, kv(1, "c")); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx3)
}

func TestLockWaitSucceedsAfterRelease(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx0 := db.Begin("setup")
	tx0.Insert(tab, kv(1, "x"))
	commit(t, db, tx0)

	tx1 := db.Begin("a")
	if _, err := tx1.Update(tab, kv(1, "a")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tx2 := db.Begin("b")
		if _, err := tx2.Update(tab, kv(1, "b")); err != nil {
			done <- err
			return
		}
		_, err := db.Commit(tx2)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	commit(t, db, tx1)
	if err := <-done; err != nil {
		t.Fatalf("waiter failed: %v", err)
	}
	if r, _ := tab.getAt(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(1)), latest, nil); r[1].Str != "b" {
		t.Fatalf("final value = %s", r[1].Str)
	}
}

func TestScanMergesOverlay(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx0 := db.Begin("setup")
	for i := int64(0); i < 10; i += 2 {
		tx0.Insert(tab, kv(i, fmt.Sprintf("c%d", i)))
	}
	commit(t, db, tx0)

	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "n1"))   // interleaved insert
	tx.Insert(tab, kv(11, "n11")) // trailing insert
	tx.Delete(tab, sqltypes.NewBigInt(4))
	tx.Update(tab, kv(6, "u6"))
	var got []string
	tx.Scan(tab, func(_ []byte, r sqltypes.Row) bool {
		got = append(got, fmt.Sprintf("%d=%s", r[0].Int(), r[1].Str))
		return true
	})
	want := []string{"0=c0", "1=n1", "2=c2", "6=u6", "8=c8", "11=n11"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	// Committed state unchanged until commit.
	count := 0
	tab.Scan(func([]byte, sqltypes.Row) bool { count++; return true })
	if count != 5 {
		t.Fatalf("committed rows = %d", count)
	}
	// Early stop.
	got = got[:0]
	tx.Scan(tab, func(_ []byte, r sqltypes.Row) bool {
		got = append(got, r[1].Str)
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Fatalf("early stop = %v", got)
	}
	tx.Rollback()
}

func TestScanRangePrefix(t *testing.T) {
	db := openTestDB(t)
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("a", sqltypes.TypeBigInt),
		sqltypes.Col("b", sqltypes.TypeBigInt),
		sqltypes.Col("v", sqltypes.TypeNVarChar),
	}, "a", "b")
	tab := mustCreate(t, db, "t", s)
	tx := db.Begin("u")
	for a := int64(1); a <= 3; a++ {
		for b := int64(1); b <= 4; b++ {
			tx.Insert(tab, sqltypes.Row{sqltypes.NewBigInt(a), sqltypes.NewBigInt(b), sqltypes.NewNVarChar("x")})
		}
	}
	commit(t, db, tx)

	tx = db.Begin("u")
	tx.Insert(tab, sqltypes.Row{sqltypes.NewBigInt(2), sqltypes.NewBigInt(9), sqltypes.NewNVarChar("new")})
	start, end := PrefixRange(sqltypes.NewBigInt(2))
	var got []int64
	tx.ScanRange(tab, start, end, func(_ []byte, r sqltypes.Row) bool {
		got = append(got, r[1].Int())
		return true
	})
	if fmt.Sprint(got) != "[1 2 3 4 9]" {
		t.Fatalf("prefix scan = %v", got)
	}
	tx.Rollback()
}

func TestHeapTables(t *testing.T) {
	db := openTestDB(t)
	s := sqltypes.MustSchema([]sqltypes.Column{sqltypes.Col("v", sqltypes.TypeNVarChar)})
	tab := mustCreate(t, db, "h", s)
	if !tab.Meta().Heap {
		t.Fatal("keyless table should be a heap")
	}
	tx := db.Begin("u")
	k1, err := tx.Insert(tab, sqltypes.Row{sqltypes.NewNVarChar("a")})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := tx.Insert(tab, sqltypes.Row{sqltypes.NewNVarChar("a")}) // duplicates allowed
	if string(k1) == string(k2) {
		t.Fatal("heap RIDs must be unique")
	}
	if _, _, err := tx.Get(tab, sqltypes.NewNVarChar("a")); err == nil {
		t.Fatal("Get on heap should require RID")
	}
	if r, ok, _ := tx.GetByKey(tab, k1, nil); !ok || r[0].Str != "a" {
		t.Fatal("GetByKey failed")
	}
	commit(t, db, tx)
	if tab.RowCount() != 2 {
		t.Fatalf("heap rowcount = %d", tab.RowCount())
	}
}

func TestIndexesMaintainedAndQueried(t *testing.T) {
	db := openTestDB(t)
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("id", sqltypes.TypeBigInt),
		sqltypes.Col("city", sqltypes.TypeNVarChar),
	}, "id")
	tab := mustCreate(t, db, "people", s)
	tx := db.Begin("u")
	tx.Insert(tab, sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewNVarChar("oslo")})
	tx.Insert(tab, sqltypes.Row{sqltypes.NewBigInt(2), sqltypes.NewNVarChar("rome")})
	commit(t, db, tx)

	ix, err := db.CreateIndex("people", "ix_city", "city")
	if err != nil {
		t.Fatal(err)
	}
	// Index built from existing rows.
	var hits []int64
	tab.LookupIndexPrefix(ix, []sqltypes.Value{sqltypes.NewNVarChar("rome")}, func(_ []byte, r sqltypes.Row) bool {
		hits = append(hits, r[0].Int())
		return true
	})
	if fmt.Sprint(hits) != "[2]" {
		t.Fatalf("index lookup = %v", hits)
	}
	// Maintained on insert/update/delete.
	tx = db.Begin("u")
	tx.Insert(tab, sqltypes.Row{sqltypes.NewBigInt(3), sqltypes.NewNVarChar("rome")})
	tx.Update(tab, sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewNVarChar("rome")})
	tx.Delete(tab, sqltypes.NewBigInt(2))
	commit(t, db, tx)
	hits = hits[:0]
	tab.LookupIndexPrefix(ix, []sqltypes.Value{sqltypes.NewNVarChar("rome")}, func(_ []byte, r sqltypes.Row) bool {
		hits = append(hits, r[0].Int())
		return true
	})
	if fmt.Sprint(hits) != "[1 3]" {
		t.Fatalf("index lookup after DML = %v", hits)
	}
	// Entry count matches rows.
	n := 0
	tab.ScanIndex(ix, func(_, _ []byte) bool { n++; return true })
	if n != tab.RowCount() {
		t.Fatalf("index entries = %d, rows = %d", n, tab.RowCount())
	}
}

func TestDDLValidation(t *testing.T) {
	db := openTestDB(t)
	mustCreate(t, db, "t", kvSchema())
	if _, err := db.CreateTable(CreateTableSpec{Name: "t", Schema: kvSchema()}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := db.CreateIndex("nope", "ix", "k"); err == nil {
		t.Fatal("index on missing table accepted")
	}
	if _, err := db.CreateIndex("t", "ix", "nope"); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if _, err := db.CreateIndex("t", "ix", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("t", "IX", "v"); err == nil {
		t.Fatal("case-colliding index accepted")
	}
	if _, err := db.Table("nope"); err == nil {
		t.Fatal("missing table lookup succeeded")
	}
	if _, err := db.TableByID(999); err == nil {
		t.Fatal("missing table id lookup succeeded")
	}
}

func TestReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "persisted"))
	tx.Update(tab, kv(1, "updated"))
	commit(t, db, tx)
	db.Close()

	db2 := openDBAt(t, dir)
	tab2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	r, ok := tab2.getAt(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(1)), latest, nil)
	if !ok || r[1].Str != "updated" {
		t.Fatalf("replayed row = %v, %v", r, ok)
	}
	// Transaction ids keep increasing after reopen.
	tx2 := db2.Begin("u")
	if tx2.ID() <= tx.ID() {
		t.Fatalf("tx id went backwards: %d <= %d", tx2.ID(), tx.ID())
	}
	tx2.Rollback()
}

func TestCheckpointAndRecoveryFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	for i := int64(0); i < 50; i++ {
		tx.Insert(tab, kv(i, fmt.Sprintf("v%d", i)))
	}
	commit(t, db, tx)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// More work after the checkpoint.
	tx = db.Begin("u")
	tx.Update(tab, kv(7, "post-ckpt"))
	commit(t, db, tx)
	db.Close()

	db2 := openDBAt(t, dir)
	tab2, _ := db2.Table("t")
	if tab2.RowCount() != 50 {
		t.Fatalf("rowcount = %d", tab2.RowCount())
	}
	r, _ := tab2.getAt(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(7)), latest, nil)
	if r[1].Str != "post-ckpt" {
		t.Fatalf("post-checkpoint update lost: %v", r)
	}
}

func TestIndexSurvivesCheckpointAndReplay(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	if _, err := db.CreateIndex("t", "ix_v", "v"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "alpha"))
	commit(t, db, tx)
	db.Checkpoint()
	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "beta"))
	commit(t, db, tx)
	db.Close()

	db2 := openDBAt(t, dir)
	tab2, _ := db2.Table("t")
	ixs := tab2.Indexes()
	if len(ixs) != 1 {
		t.Fatalf("indexes after recovery = %d", len(ixs))
	}
	var hits int
	tab2.LookupIndexPrefix(ixs[0], []sqltypes.Value{sqltypes.NewNVarChar("beta")}, func(_ []byte, _ sqltypes.Row) bool {
		hits++
		return true
	})
	if hits != 1 {
		t.Fatalf("index lookup after recovery = %d hits", hits)
	}
}

func TestUncommittedLostOnCrash(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "committed"))
	commit(t, db, tx)
	// An in-flight tx whose writes never hit the log: simulate crash by
	// simply not committing and closing.
	tx2 := db.Begin("u")
	tx2.Insert(tab, kv(2, "lost"))
	db.Close()

	db2 := openDBAt(t, dir)
	tab2, _ := db2.Table("t")
	if tab2.RowCount() != 1 {
		t.Fatalf("rowcount = %d, want only the committed row", tab2.RowCount())
	}
}

func TestConcurrentCommitsDisjointKeys(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tx := db.Begin("u")
				if _, err := tx.Insert(tab, kv(int64(g*1000+i), "x")); err != nil {
					errs <- err
					return
				}
				if _, err := db.Commit(tx); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tab.RowCount() != goroutines*perG {
		t.Fatalf("rowcount = %d", tab.RowCount())
	}
}

func TestCommitTimestampsMonotonic(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	var last int64
	for i := int64(0); i < 100; i++ {
		tx := db.Begin("u")
		tx.Insert(tab, kv(i, "x"))
		ts, err := db.Commit(tx)
		if err != nil {
			t.Fatal(err)
		}
		if ts <= last {
			t.Fatalf("commit ts not monotonic: %d after %d", ts, last)
		}
		last = ts
	}
}

func TestAlterTableMetaWidensRows(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	commit(t, db, tx)
	err := db.AlterTableMeta(tab.ID(), func(m *TableMeta) error {
		m.Schema.Columns = append(m.Schema.Columns, sqltypes.Column{
			Name: "extra", Type: sqltypes.TypeInt, Nullable: true, Ordinal: len(m.Schema.Columns),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := tab.getAt(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(1)), latest, nil)
	if len(r) != 3 || !r[2].Null {
		t.Fatalf("row not widened: %v", r)
	}
}

func TestTamperBypassesEverything(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "honest"))
	commit(t, db, tx)
	key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(1))
	logBefore := db.log.Size()
	err := db.TamperUpdateRow(tab, key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewNVarChar("tampered")
		return r
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if db.log.Size() != logBefore {
		t.Fatal("tamper must not write to the WAL")
	}
	r, _ := tab.getAt(key, latest, nil)
	if r[1].Str != "tampered" {
		t.Fatal("tamper had no effect")
	}
	if err := db.TamperDeleteRow(tab, key, true); err != nil {
		t.Fatal(err)
	}
	if tab.RowCount() != 0 {
		t.Fatal("tamper delete failed")
	}
	if _, err := db.TamperInsertRow(tab, kv(9, "injected"), true); err != nil {
		t.Fatal(err)
	}
	if err := db.TamperColumnType(tab, "v", sqltypes.TypeVarChar); err != nil {
		t.Fatal(err)
	}
	if tab.Schema().Columns[1].Type != sqltypes.TypeVarChar {
		t.Fatal("column type tamper failed")
	}
}

func TestRestoreToTime(t *testing.T) {
	srcDir := t.TempDir()
	db := openDBAt(t, srcDir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "early"))
	commit(t, db, tx)
	cutoff := db.LastCommitTS()

	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "late"))
	commit(t, db, tx)
	db.Close()

	dstDir := t.TempDir() + "/restored"
	if err := RestoreToTime(srcDir, dstDir, cutoff); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rdb := openDBAt(t, dstDir)
	rtab, err := rdb.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if rtab.RowCount() != 1 {
		t.Fatalf("restored rowcount = %d, want 1", rtab.RowCount())
	}
	if _, ok := rtab.getAt(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(2)), latest, nil); ok {
		t.Fatal("post-cutoff row present after restore")
	}
}

func TestRestoreAfterCheckpointStripsSnapshots(t *testing.T) {
	srcDir := t.TempDir()
	db := openDBAt(t, srcDir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	commit(t, db, tx)
	db.Checkpoint()
	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "y"))
	commit(t, db, tx)
	cutoff := db.LastCommitTS()
	db.Close()

	dstDir := t.TempDir() + "/restored"
	if err := RestoreToTime(srcDir, dstDir, cutoff); err != nil {
		t.Fatal(err)
	}
	rdb := openDBAt(t, dstDir)
	rtab, _ := rdb.Table("t")
	if rtab.RowCount() != 2 {
		t.Fatalf("restored rowcount = %d, want 2", rtab.RowCount())
	}
}

func TestCommitWithLedgerHook(t *testing.T) {
	dir := t.TempDir()
	hook := &testHook{}
	db, err := Open(Options{Dir: dir, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable(CreateTableSpec{Name: "t", Schema: kvSchema(), Ledger: LedgerUpdateable})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("alice")
	tx.Insert(tab, kv(1, "x"))
	tx.Roots = []wal.TableRoot{{TableID: tab.ID()}}
	commit(t, db, tx)
	if hook.commits != 1 {
		t.Fatalf("hook.OnCommit calls = %d", hook.commits)
	}
	// A tx without roots must not reach the hook.
	tx = db.Begin("bob")
	tx.Insert(tab, kv(2, "y"))
	commit(t, db, tx)
	if hook.commits != 1 {
		t.Fatalf("hook called for rootless tx")
	}
}

type testHook struct {
	commits   int
	recovered []*wal.LedgerEntry
	logged    []int64 // frame LSNs, from Logged or Recovered
}

func (h *testHook) OnCommit(txID uint64, commitTS int64, user string, roots []wal.TableRoot) wal.LedgerEntry {
	h.commits++
	return wal.LedgerEntry{TxID: txID, Ordinal: uint32(h.commits - 1), CommitTS: commitTS, User: user, Roots: roots}
}
func (h *testHook) Logged(_ uint64, _ uint32, lsn int64) { h.logged = append(h.logged, lsn) }
func (h *testHook) BeforeSnapshot()                      {}
func (h *testHook) Recovered(es []*wal.LedgerEntry, frames []int64) {
	h.recovered, h.logged = es, frames
}

func TestRecoveryDeliversLedgerEntries(t *testing.T) {
	dir := t.TempDir()
	hook := &testHook{}
	db, err := Open(Options{Dir: dir, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable(CreateTableSpec{Name: "t", Schema: kvSchema(), Ledger: LedgerUpdateable})
	for i := int64(0); i < 3; i++ {
		tx := db.Begin("u")
		tx.Insert(tab, kv(i, "x"))
		tx.Roots = []wal.TableRoot{{TableID: tab.ID()}}
		commit(t, db, tx)
	}
	db.Close()

	hook2 := &testHook{}
	db2, err := Open(Options{Dir: dir, Hook: hook2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if len(hook2.recovered) != 3 {
		t.Fatalf("recovered entries = %d, want 3", len(hook2.recovered))
	}
	for i, e := range hook2.recovered {
		if e.Ordinal != uint32(i) || e.User != "u" {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	// Redo learns the frame commit reported, and the frame holds the DML.
	if !slices.Equal(hook2.logged, hook.logged) || len(hook.logged) != 3 {
		t.Fatalf("recovered frames %v, logged at commit %v", hook2.logged, hook.logged)
	}
	for _, lsn := range hook2.logged {
		recs, err := db2.ReadFrame(lsn)
		if err != nil || len(recs) != 2 || recs[0].Type != wal.RecInsert || recs[1].Type != wal.RecCommit {
			t.Fatalf("frame at %d: %v, %v", lsn, recs, err)
		}
	}
}

func TestScanShardsCoverExactly(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	const rows = 3000
	for lo := 0; lo < rows; lo += 100 {
		tx := db.Begin("u")
		for i := lo; i < lo+100; i++ {
			if _, err := tx.Insert(tab, kv(int64(i), fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, db, tx)
	}
	var want []string
	tab.Scan(func(k []byte, _ sqltypes.Row) bool {
		want = append(want, string(k))
		return true
	})
	for _, n := range []int{1, 2, 4, 8, 64} {
		shards := tab.ScanShards(n)
		if len(shards) == 0 {
			t.Fatalf("n=%d: no shards", n)
		}
		if len(shards) > n {
			t.Fatalf("n=%d: %d shards", n, len(shards))
		}
		var got []string
		for _, kr := range shards {
			tab.scanAt(kr.Start, kr.End, latest, nil, func(k []byte, _ sqltypes.Row) bool {
				got = append(got, string(k))
				return true
			})
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: sharded scan saw %d rows, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: row %d out of place", n, i)
			}
		}
	}
}

func TestScanShardsEmptyTable(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	shards := tab.ScanShards(8)
	if len(shards) != 1 || shards[0].Start != nil || shards[0].End != nil {
		t.Fatalf("empty table shards = %+v, want one unbounded range", shards)
	}
	rows := 0
	tab.scanAt(shards[0].Start, shards[0].End, latest, nil, func([]byte, sqltypes.Row) bool {
		rows++
		return true
	})
	if rows != 0 {
		t.Fatalf("empty shard scanned %d rows", rows)
	}
}

func TestScanIndexShardsCoverExactly(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	ix, err := db.CreateIndex("t", "ix_v", "v")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("u")
	for i := 0; i < 1500; i++ {
		if _, err := tx.Insert(tab, kv(int64(i), fmt.Sprintf("v%05d", i*7%1500))); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db, tx)
	var want []string
	tab.ScanIndex(ix, func(ek, ck []byte) bool {
		want = append(want, string(ek)+"\x00"+string(ck))
		return true
	})
	for _, n := range []int{1, 3, 8} {
		var got []string
		for _, kr := range tab.ScanIndexShards(ix, n) {
			tab.ScanIndexRange(ix, kr.Start, kr.End, func(ek, ck []byte) bool {
				got = append(got, string(ek)+"\x00"+string(ck))
				return true
			})
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: sharded index scan saw %d entries, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: entry %d out of place", n, i)
			}
		}
	}
}

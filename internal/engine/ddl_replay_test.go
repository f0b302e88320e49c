package engine

import (
	"testing"

	"sqlledger/internal/sqltypes"
)

// DDL must be recoverable purely from the WAL (no checkpoint in between):
// redoDDL through the function of each DDL kind.

func TestDDLReplayCreateIndex(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "alpha"))
	commit(t, db, tx)
	if _, err := db.CreateIndex("t", "ix_v", "v"); err != nil {
		t.Fatal(err)
	}
	// More data after the DDL.
	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "beta"))
	commit(t, db, tx)
	db.Close() // no checkpoint: recovery replays create_index

	db2 := openDBAt(t, dir)
	tab2, _ := db2.Table("t")
	ixs := tab2.Indexes()
	if len(ixs) != 1 || ixs[0].Meta().Name != "ix_v" {
		t.Fatalf("indexes after replay = %v", ixs)
	}
	hits := 0
	tab2.LookupIndexPrefix(ixs[0], []sqltypes.Value{sqltypes.NewNVarChar("beta")}, func(_ []byte, _ sqltypes.Row) bool {
		hits++
		return true
	})
	if hits != 1 {
		t.Fatalf("replayed index lookup hits = %d", hits)
	}
}

func TestDDLReplayDropIndex(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	mustCreate(t, db, "t", kvSchema())
	if _, err := db.CreateIndex("t", "ix_v", "v"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("ix_v"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDBAt(t, dir)
	tab2, _ := db2.Table("t")
	if len(tab2.Indexes()) != 0 {
		t.Fatal("dropped index resurrected by replay")
	}
}

func TestDDLReplayAlterTable(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	commit(t, db, tx)
	err := db.AlterTableMeta(tab.ID(), func(m *TableMeta) error {
		m.Schema.Columns = append(m.Schema.Columns, sqltypes.Column{
			Name: "extra", Type: sqltypes.TypeInt, Nullable: true, Ordinal: 2,
		})
		m.Name = "renamed"
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDBAt(t, dir)
	if _, err := db2.Table("t"); err == nil {
		t.Fatal("old name still resolves after replayed rename")
	}
	tab2, err := db2.Table("renamed")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab2.Schema().Columns) != 3 {
		t.Fatalf("columns after replay = %d", len(tab2.Schema().Columns))
	}
	r, ok := tab2.Lookup(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(1)))
	if !ok || len(r) != 3 || !r[2].Null {
		t.Fatalf("row not widened by replayed alter: %v", r)
	}
}

func TestDDLReplayInterleavedWithDML(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	// DML, DDL, DML, DDL, DML — recovery must apply them in order.
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "a"))
	commit(t, db, tx)
	if _, err := db.CreateIndex("t", "ix1", "v"); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "b"))
	commit(t, db, tx)
	if err := db.DropIndex("ix1"); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("u")
	tx.Insert(tab, kv(3, "c"))
	commit(t, db, tx)
	db.Close()

	db2 := openDBAt(t, dir)
	tab2, _ := db2.Table("t")
	if tab2.RowCount() != 3 || len(tab2.Indexes()) != 0 {
		t.Fatalf("state after replay: rows=%d indexes=%d", tab2.RowCount(), len(tab2.Indexes()))
	}
}

func TestDirectInsertBypassesWAL(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	before := db.LogSize()
	if _, err := db.DirectInsert(tab, kv(1, "direct")); err != nil {
		t.Fatal(err)
	}
	if db.LogSize() != before {
		t.Fatal("DirectInsert wrote to the WAL")
	}
	if tab.RowCount() != 1 {
		t.Fatal("DirectInsert did not install the row")
	}
	if _, err := db.DirectInsert(tab, kv(1, "dup")); err == nil {
		t.Fatal("duplicate DirectInsert accepted")
	}
	// Heap direct insert assigns RIDs.
	heap := mustCreate(t, db, "h", sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("v", sqltypes.TypeNVarChar),
	}))
	k1, err := db.DirectInsert(heap, sqltypes.Row{sqltypes.NewNVarChar("x")})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := db.DirectInsert(heap, sqltypes.Row{sqltypes.NewNVarChar("x")})
	if string(k1) == string(k2) {
		t.Fatal("heap DirectInsert reused a RID")
	}
}

func TestAccessors(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	if db.Dir() == "" {
		t.Fatal("Dir empty")
	}
	if tab.Name() != "t" || tab.Meta().Name != "t" {
		t.Fatal("table accessors wrong")
	}
	if len(db.Tables()) == 0 {
		t.Fatal("Tables empty")
	}
	tx := db.Begin("alice")
	if tx.User() != "alice" {
		t.Fatal("User wrong")
	}
	if tx.CurrentSeq() != 0 {
		t.Fatal("fresh tx seq != 0")
	}
	tx.NextSeq()
	if tx.CurrentSeq() != 1 {
		t.Fatal("seq not advanced")
	}
	if tx.WriteCount() != 0 {
		t.Fatal("fresh tx has writes")
	}
	tx.Insert(tab, kv(1, "x"))
	if tx.WriteCount() != 1 {
		t.Fatal("WriteCount wrong")
	}
	tx.Rollback()
}

func TestEmptyCommitIsNoop(t *testing.T) {
	db := openTestDB(t)
	before := db.LogSize()
	tx := db.Begin("u")
	if _, err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if db.LogSize() != before {
		t.Fatal("read-only commit wrote to the WAL")
	}
}

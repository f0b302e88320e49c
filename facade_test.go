package sqlledger_test

import (
	"testing"
	"time"

	"sqlledger"
)

// TestFacadeValueConstructors pins the facade's re-exported constructors
// against the types they must build — the public API surface examples and
// applications write against.
func TestFacadeValueConstructors(t *testing.T) {
	cases := []struct {
		v    sqlledger.Value
		typ  sqlledger.TypeID
		null bool
	}{
		{sqlledger.Bit(true), sqlledger.TypeBit, false},
		{sqlledger.TinyInt(7), sqlledger.TypeTinyInt, false},
		{sqlledger.SmallInt(-3), sqlledger.TypeSmallInt, false},
		{sqlledger.Int(42), sqlledger.TypeInt, false},
		{sqlledger.BigInt(1 << 40), sqlledger.TypeBigInt, false},
		{sqlledger.Float(2.5), sqlledger.TypeFloat, false},
		{sqlledger.Decimal(12345), sqlledger.TypeDecimal, false},
		{sqlledger.Char("c"), sqlledger.TypeChar, false},
		{sqlledger.VarChar("v"), sqlledger.TypeVarChar, false},
		{sqlledger.NVarChar("n"), sqlledger.TypeNVarChar, false},
		{sqlledger.Binary([]byte{1}), sqlledger.TypeBinary, false},
		{sqlledger.VarBinary([]byte{2}), sqlledger.TypeVarBinary, false},
		{sqlledger.DateTime(time.Now()), sqlledger.TypeDateTime, false},
		{sqlledger.Null(sqlledger.TypeInt), sqlledger.TypeInt, true},
	}
	for i, c := range cases {
		if c.v.Type != c.typ || c.v.Null != c.null {
			t.Errorf("case %d: got (%v,%v), want (%v,%v)", i, c.v.Type, c.v.Null, c.typ, c.null)
		}
	}
}

func TestFacadeSchemaHelpers(t *testing.T) {
	s, err := sqlledger.NewSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt),
		sqlledger.NullableCol("opt", sqlledger.TypeInt),
		sqlledger.VarCol("name", sqlledger.TypeVarChar, 40),
		sqlledger.DecimalCol("price", 10, 2),
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Columns) != 4 || len(s.Key) != 1 {
		t.Fatalf("schema = %+v", s)
	}
	if s.Columns[2].Len != 40 || s.Columns[3].Prec != 10 || s.Columns[3].Scale != 2 {
		t.Fatalf("column attrs lost: %+v", s.Columns)
	}
	if !s.Columns[1].Nullable {
		t.Fatal("NullableCol not nullable")
	}
	if _, err := sqlledger.NewSchema([]sqlledger.Column{sqlledger.Col("a", sqlledger.TypeInt)}, "missing"); err == nil {
		t.Fatal("bad key accepted")
	}
}

func TestFacadeBlobStores(t *testing.T) {
	mem := sqlledger.NewMemoryBlobStore()
	if err := mem.Put("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	dirStore, err := sqlledger.NewDirBlobStore(t.TempDir() + "/blobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := dirStore.Put("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := dirStore.Put("x", []byte("2")); err == nil {
		t.Fatal("dir store not immutable")
	}
}

func TestFacadeSchemaChangesAndTruncation(t *testing.T) {
	// Exercise schema-change and truncation methods through the facade.
	db := newTestDB(t, 2)
	lt, err := db.CreateLedgerTable("t", accountsSchema(), sqlledger.Updateable)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		tx := db.Begin("u")
		if err := tx.Insert(lt, sqlledger.Row{
			sqlledger.NVarChar(string(rune('a' + i))), sqlledger.BigInt(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddColumn(lt, sqlledger.NullableCol("tag", sqlledger.TypeNVarChar)); err != nil {
		t.Fatal(err)
	}
	if err := db.DropColumn(lt, "tag"); err != nil {
		t.Fatal(err)
	}
	d, err := db.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.TruncateLedger(d.BlockID / 2); err != nil {
		t.Fatal(err)
	}
	rep, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("facade lifecycle verify:\n%s", rep)
	}
	ops, err := db.TableOperations()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no table operations recorded")
	}
	if _, ok := db.ViewDefinition(lt.ID()); !ok {
		t.Fatal("view definition missing")
	}
}

func TestFacadeLedgerViewAndInfo(t *testing.T) {
	db := newTestDB(t, 100)
	lt, err := db.CreateLedgerTable("t", accountsSchema(), sqlledger.Updateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("writer")
	if err := tx.Insert(lt, sqlledger.Row{sqlledger.NVarChar("k"), sqlledger.BigInt(9)}); err != nil {
		t.Fatal(err)
	}
	id := tx.ID()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	view, err := lt.LedgerView()
	if err != nil {
		t.Fatal(err)
	}
	if len(view) != 1 || view[0].Operation != "INSERT" || view[0].TxID != id {
		t.Fatalf("view = %+v", view)
	}
	user, ts, block, ok := db.TransactionInfo(id)
	if !ok || user != "writer" || ts == 0 {
		t.Fatalf("TransactionInfo = %q,%d,%d,%v", user, ts, block, ok)
	}
	if _, _, _, ok := db.TransactionInfo(99999); ok {
		t.Fatal("unknown tx found")
	}
}

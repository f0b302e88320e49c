package sqlledger_test

import (
	"crypto/ed25519"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sqlledger"
)

// TestFullLifecycle drives the public API through a complete deployment
// story: schema DDL, mixed DML, digest streaming to immutable storage,
// receipts, checkpointing, a crash-restart, point-in-time restore, and
// audits at every stage.
func TestFullLifecycle(t *testing.T) {
	baseDir := t.TempDir()
	srcDir := filepath.Join(baseDir, "db")
	store := sqlledger.NewMemoryBlobStore()
	pub, priv, _ := ed25519.GenerateKey(nil)

	db, err := sqlledger.Open(sqlledger.Options{Dir: srcDir, Name: "lifecycle", BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}

	orders, err := db.CreateLedgerTable("orders", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt),
		sqlledger.Col("customer", sqlledger.TypeNVarChar),
		sqlledger.NullableCol("total", sqlledger.TypeBigInt),
		sqlledger.Col("status", sqlledger.TypeNVarChar),
	}, "id"), sqlledger.Updateable)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := db.CreateLedgerTable("audit_log", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("seq", sqlledger.TypeBigInt),
		sqlledger.Col("event", sqlledger.TypeNVarChar),
	}, "seq"), sqlledger.AppendOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Engine().CreateIndex("orders", "ix_orders_customer", "customer"); err != nil {
		t.Fatal(err)
	}

	// Phase 1: business as usual.
	var receiptTx uint64
	for i := int64(1); i <= 20; i++ {
		tx := db.Begin(fmt.Sprintf("clerk-%d", i%3))
		if err := tx.Insert(orders, sqlledger.Row{
			sqlledger.BigInt(i), sqlledger.NVarChar(fmt.Sprintf("cust-%d", i%7)),
			sqlledger.BigInt(i * 100), sqlledger.NVarChar("open"),
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(audit, sqlledger.Row{
			sqlledger.BigInt(i), sqlledger.NVarChar("order placed"),
		}); err != nil {
			t.Fatal(err)
		}
		if i == 13 {
			receiptTx = tx.ID()
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Some updates and deletes.
	for i := int64(1); i <= 10; i++ {
		tx := db.Begin("fulfillment")
		r, ok, err := tx.Get(orders, sqlledger.BigInt(i))
		if err != nil || !ok {
			t.Fatal(err)
		}
		r = r.Clone() // Get returns a read-only view
		r[3] = sqlledger.NVarChar("shipped")
		if err := tx.Update(orders, r); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin("admin")
	if err := tx.Delete(orders, sqlledger.BigInt(20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Digest + receipt.
	if _, err := db.UploadDigest(store); err != nil {
		t.Fatal(err)
	}
	receipt, err := db.GenerateReceipt(receiptTx, priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlledger.VerifyReceipt(receipt, pub); err != nil {
		t.Fatal(err)
	}

	// Schema evolution mid-life.
	if err := db.AddColumn(orders, sqlledger.NullableCol("note", sqlledger.TypeNVarChar)); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("clerk-1")
	if err := tx.Insert(orders, sqlledger.Row{
		sqlledger.BigInt(21), sqlledger.NVarChar("cust-1"),
		sqlledger.BigInt(50), sqlledger.NVarChar("open"), sqlledger.NVarChar("rush"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.UploadDigest(store); err != nil {
		t.Fatal(err)
	}

	// Checkpoint, then crash-restart (close without further checkpoints).
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cutoff := db.Engine().LastCommitTS()
	tx = db.Begin("clerk-2")
	if err := tx.Insert(orders, sqlledger.Row{
		sqlledger.BigInt(22), sqlledger.NVarChar("cust-2"),
		sqlledger.BigInt(60), sqlledger.NVarChar("open"), sqlledger.Null(sqlledger.TypeNVarChar),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db, err = sqlledger.Open(sqlledger.Options{Dir: srcDir, Name: "lifecycle", BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.VerifyFromStore(store, sqlledger.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("post-restart audit failed:\n%s", rep)
	}
	orders, err = db.LedgerTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	if orders.Table().RowCount() != 21 { // 20 inserted + 1 post-ckpt + 1 new - 1 deleted
		t.Fatalf("orders rows after restart = %d", orders.Table().RowCount())
	}
	db.Close()

	// Point-in-time restore to before order 22 existed.
	restoreDir := filepath.Join(baseDir, "restored")
	if err := sqlledger.RestoreToTime(srcDir, restoreDir, cutoff); err != nil {
		t.Fatal(err)
	}
	rdb, err := sqlledger.Open(sqlledger.Options{Dir: restoreDir, Name: "lifecycle", BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rOrders, err := rdb.LedgerTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	tx = rdb.Begin("auditor")
	if _, ok, _ := tx.Get(rOrders, sqlledger.BigInt(22)); ok {
		t.Fatal("order 22 exists after restore to earlier point")
	}
	if _, ok, _ := tx.Get(rOrders, sqlledger.BigInt(21)); !ok {
		t.Fatal("order 21 missing after restore")
	}
	tx.Rollback()
	rep, err = rdb.VerifyFromStore(store, sqlledger.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("restored-database audit failed:\n%s", rep)
	}
	// The receipt from the original incarnation still verifies offline.
	if err := sqlledger.VerifyReceipt(receipt, pub); err != nil {
		t.Fatal(err)
	}
}

// TestGeoFailoverScenario simulates §3.6's geo-replication: digests are
// gated on replication progress, so a failover to a slightly-behind
// secondary can never invalidate an issued digest.
func TestGeoFailoverScenario(t *testing.T) {
	lag := 10 * time.Millisecond
	db, err := sqlledger.Open(sqlledger.Options{
		Dir: t.TempDir(), Name: "geo", BlockSize: 100,
		ReplicaLag:      func() time.Duration { return lag },
		MaxReplicaDelay: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lt, err := db.CreateLedgerTable("t", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("k", sqlledger.TypeBigInt),
		sqlledger.Col("v", sqlledger.TypeBigInt),
	}, "k"), sqlledger.Updateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("u")
	if err := tx.Insert(lt, sqlledger.Row{sqlledger.BigInt(1), sqlledger.BigInt(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The digest only returns once the secondary has the data; the data
	// it covers can therefore never be lost to a failover.
	d, err := db.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{})
	if err != nil || !rep.Ok() {
		t.Fatalf("verify: %v\n%s", err, rep)
	}
}

// TestDigestJSONShape pins the JSON document format the API exposes (§2.2
// describes a JSON document with the block hash and metadata).
func TestDigestJSONShape(t *testing.T) {
	db := newTestDB(t, 100)
	lt, err := db.CreateLedgerTable("t", accountsSchema(), sqlledger.Updateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("u")
	if err := tx.Insert(lt, sqlledger.Row{sqlledger.NVarChar("a"), sqlledger.BigInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	d, err := db.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := sqlledger.ParseDigest(d.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != d {
		t.Fatalf("digest JSON roundtrip: %+v vs %+v", parsed, d)
	}
	if parsed.DatabaseName != "testdb" || parsed.GeneratedAt == 0 || parsed.LastCommitTS == 0 {
		t.Fatalf("digest fields missing: %+v", parsed)
	}
	if _, err := sqlledger.ParseDigest([]byte(`{"hash":"xyz"}`)); err == nil {
		t.Fatal("bad digest accepted")
	}
}

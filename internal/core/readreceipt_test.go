package core

import (
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// seedReadLedger commits three transactions: a 3-row insert, a 2-row
// insert, and an update of one of the second batch's rows. Returns the
// table.
func seedReadLedger(t *testing.T, l *DB) *LedgerTable {
	t.Helper()
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	tx := l.Begin("alice")
	for _, name := range []string{"a1", "a2", "a3"} {
		if err := tx.Insert(lt, account(name, 10)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tx = l.Begin("bob")
	for _, name := range []string{"b1", "b2"} {
		if err := tx.Insert(lt, account(name, 20)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tx = l.Begin("carol")
	if err := tx.Update(lt, account("b2", 99)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	return lt
}

// readAll snapshot-reads every row (one Get plus a full Scan) under a
// receipt-collecting transaction and returns it still open.
func readAll(t *testing.T, l *DB, lt *LedgerTable) *ReadTx {
	t.Helper()
	rt := l.BeginReadOnlyForReceipt()
	row, ok, err := rt.Get(lt, sqltypes.NewNVarChar("a1"))
	if err != nil || !ok {
		t.Fatalf("snapshot get: ok=%v err=%v", ok, err)
	}
	if len(row) != 2 {
		t.Fatalf("snapshot get returned %d columns, want 2 visible", len(row))
	}
	n := 0
	if err := rt.Scan(lt, func(sqltypes.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("snapshot scan saw %d rows, want 5", n)
	}
	// The Get duplicated one scan row; the read set dedups it.
	if rt.ReadSetSize() != 5 {
		t.Fatalf("read set has %d rows, want 5", rt.ReadSetSize())
	}
	return rt
}

func TestReadReceiptRoundTrip(t *testing.T) {
	pub, priv := testKeys(t)
	l := openTestLedger(t, 4)
	lt := seedReadLedger(t, l)

	rt := readAll(t, l, lt)
	r, err := rt.CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("receipt has %d rows, want 5", len(r.Rows))
	}
	// Rows created by one transaction share its entry: the read set spans
	// exactly the three seeded user transactions.
	if len(r.Entries) != 3 {
		t.Fatalf("receipt has %d transaction entries, want 3 (deduplicated)", len(r.Entries))
	}
	if err := VerifyReadReceipt(r, pub); err != nil {
		t.Fatalf("verify: %v", err)
	}
	back, err := ParseReadReceipt(r.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReadReceipt(back, pub); err != nil {
		t.Fatalf("verify after JSON roundtrip: %v", err)
	}
	// A second CloseWithReceipt on the same (now closed) tx must fail.
	if _, err := rt.CloseWithReceipt(priv); err == nil {
		t.Fatal("CloseWithReceipt on a closed read tx succeeded")
	}
}

func TestReadReceiptOfSupersededVersion(t *testing.T) {
	// Pin a snapshot, then update and delete rows it read AFTER the pin:
	// the receipt, built last, must still prove the old versions (their
	// insert hashes now live in the history table).
	pub, priv := testKeys(t)
	l := openTestLedger(t, 4)
	lt := seedReadLedger(t, l)

	rt := readAll(t, l, lt)
	tx := l.Begin("mallory")
	if err := tx.Update(lt, account("a1", -1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(lt, sqltypes.NewNVarChar("a2")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	r, err := rt.CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReadReceipt(r, pub); err != nil {
		t.Fatalf("receipt for superseded versions: %v", err)
	}
}

func TestReadReceiptSurvivesLedgerDestruction(t *testing.T) {
	pub, priv := testKeys(t)
	l := openTestLedger(t, 4)
	lt := seedReadLedger(t, l)
	rt := readAll(t, l, lt)
	r, err := rt.CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	l.Close() // ledger gone; verification is fully offline
	if err := VerifyReadReceipt(r, pub); err != nil {
		t.Fatalf("offline verification failed: %v", err)
	}
}

func TestReadReceiptEmptyReadSet(t *testing.T) {
	pub, priv := testKeys(t)
	l := openTestLedger(t, 4)
	seedReadLedger(t, l)
	rt := l.BeginReadOnlyForReceipt()
	r, err := rt.CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 || len(r.Entries) != 0 || len(r.Blocks) != 0 {
		t.Fatal("empty read set produced a non-empty receipt")
	}
	if err := VerifyReadReceipt(r, pub); err != nil {
		t.Fatal(err)
	}
}

// TestPlainReadOnlySkipsReadSet: a transaction begun with BeginReadOnly
// accumulates nothing (a full scan clones zero rows) and refuses to mint
// a receipt, while the reads themselves work normally.
func TestPlainReadOnlySkipsReadSet(t *testing.T) {
	_, priv := testKeys(t)
	l := openTestLedger(t, 4)
	lt := seedReadLedger(t, l)

	rt := l.BeginReadOnly()
	defer rt.Close()
	n := 0
	if err := rt.Scan(lt, func(sqltypes.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("snapshot scan saw %d rows, want 5", n)
	}
	if _, ok, err := rt.Get(lt, sqltypes.NewNVarChar("a1")); err != nil || !ok {
		t.Fatalf("snapshot get: ok=%v err=%v", ok, err)
	}
	if rt.ReadSetSize() != 0 {
		t.Fatalf("plain read-only tx accumulated %d rows, want 0", rt.ReadSetSize())
	}
	if _, err := rt.CloseWithReceipt(priv); err != ErrReceiptNotRequested {
		t.Fatalf("CloseWithReceipt on plain read tx: err=%v, want ErrReceiptNotRequested", err)
	}
	// The refusal left the transaction open; reads still work.
	if _, ok, err := rt.Get(lt, sqltypes.NewNVarChar("b1")); err != nil || !ok {
		t.Fatalf("snapshot get after refused receipt: ok=%v err=%v", ok, err)
	}
}

// reparse deep-copies a receipt through its JSON form so tamper tests
// never alias the original's slices.
func reparse(t *testing.T, r ReadReceipt) ReadReceipt {
	t.Helper()
	back, err := ParseReadReceipt(r.JSON())
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestReadReceiptTamperDetected(t *testing.T) {
	pub, priv := testKeys(t)
	l := openTestLedger(t, 4)
	lt := seedReadLedger(t, l)
	rt := readAll(t, l, lt)
	r, err := rt.CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReadReceipt(r, pub); err != nil {
		t.Fatal(err)
	}

	// Any altered row byte breaks the row's leaf hash.
	bad := reparse(t, r)
	bad.Rows[0].RowData[len(bad.Rows[0].RowData)-1] ^= 0x01
	if err := VerifyReadReceipt(bad, pub); err == nil {
		t.Fatal("tampered row data accepted")
	}

	// A corrupted row-proof sibling breaks the path to the table root.
	bad = reparse(t, r)
	tampered := false
	for i := range bad.Rows {
		if len(bad.Rows[i].Proof.Siblings) > 0 {
			s := []byte(bad.Rows[i].Proof.Siblings[0])
			s[0] ^= 0x01
			if s[0] == 'x' { // keep it valid hex
				s[0] = '0'
			}
			bad.Rows[i].Proof.Siblings[0] = string(s)
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no row proof with siblings to tamper (read set too small)")
	}
	if err := VerifyReadReceipt(bad, pub); err == nil {
		t.Fatal("tampered row proof accepted")
	}

	// Re-pointing a row at another transaction's entry must fail.
	bad = reparse(t, r)
	bad.Rows[0].Entry = (bad.Rows[0].Entry + 1) % len(bad.Entries)
	if err := VerifyReadReceipt(bad, pub); err == nil {
		t.Fatal("row re-attributed to another transaction accepted")
	}
	bad.Rows[0].Entry = len(bad.Entries)
	if err := VerifyReadReceipt(bad, pub); err == nil {
		t.Fatal("out-of-range transaction index accepted")
	}

	// A tampered entry (different principal) breaks the entry hash.
	bad = reparse(t, r)
	bad.Entries[0].Entry.User = "mallory"
	if err := VerifyReadReceipt(bad, pub); err == nil {
		t.Fatal("tampered principal accepted")
	}

	// A tampered recorded table root breaks the entry hash too — the root
	// is part of what the block tree commits to.
	bad = reparse(t, r)
	root := []byte(bad.Entries[0].Entry.Roots[0].Root)
	if root[0] == '0' {
		root[0] = '1'
	} else {
		root[0] = '0'
	}
	bad.Entries[0].Entry.Roots[0].Root = string(root)
	if err := VerifyReadReceipt(bad, pub); err == nil {
		t.Fatal("tampered table root accepted")
	}

	// A forged block signature fails immediately.
	bad = reparse(t, r)
	bad.Blocks[0].Signature[0] ^= 0x01
	if err := VerifyReadReceipt(bad, pub); err == nil {
		t.Fatal("forged block signature accepted")
	}

	// The wrong public key rejects the whole receipt.
	otherPub, _ := testKeys(t)
	if err := VerifyReadReceipt(r, otherPub); err == nil {
		t.Fatal("wrong public key accepted")
	}

	// A receipt transplanted to another database name fails (the name is
	// bound into the signed message).
	bad = reparse(t, r)
	bad.DatabaseName = "other-db"
	if err := VerifyReadReceipt(bad, pub); err == nil {
		t.Fatal("receipt transplanted to another database accepted")
	}
}

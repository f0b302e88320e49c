package core

import (
	"crypto/ed25519"
	"errors"
	"testing"

	"sqlledger/internal/engine"
)

func testKeys(t *testing.T) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

// commitOne runs one insert transaction and returns its tx id.
func commitOne(t *testing.T, l *DB, lt *LedgerTable, name string) uint64 {
	t.Helper()
	tx := l.Begin("u")
	if err := tx.Insert(lt, account(name, 1)); err != nil {
		t.Fatal(err)
	}
	id := tx.ID()
	mustCommit(t, tx)
	return id
}

func TestReceiptRoundtrip(t *testing.T) {
	pub, priv := testKeys(t)
	l := openTestLedger(t, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	var txIDs []uint64
	for i := 0; i < 7; i++ {
		txIDs = append(txIDs, commitOne(t, l, lt, acctName(i)))
	}
	if _, err := l.GenerateDigest(); err != nil { // closes blocks
		t.Fatal(err)
	}
	for _, id := range txIDs {
		r, err := l.GenerateReceipt(id, priv)
		if err != nil {
			t.Fatalf("receipt for %d: %v", id, err)
		}
		if err := VerifyReceipt(r, pub); err != nil {
			t.Fatalf("verify receipt for %d: %v", id, err)
		}
		// JSON roundtrip.
		back, err := ParseReceipt(r.JSON())
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyReceipt(back, pub); err != nil {
			t.Fatalf("verify after JSON roundtrip: %v", err)
		}
	}
}

func TestReceiptSurvivesLedgerDestruction(t *testing.T) {
	// §5.1: a receipt proves the transaction happened even if the ledger
	// is later destroyed — verification is offline.
	pub, priv := testKeys(t)
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	id := commitOne(t, l, lt, "deposit")
	if _, err := l.GenerateDigest(); err != nil {
		t.Fatal(err)
	}
	r, err := l.GenerateReceipt(id, priv)
	if err != nil {
		t.Fatal(err)
	}
	l.Close() // ledger gone
	if err := VerifyReceipt(r, pub); err != nil {
		t.Fatalf("offline verification failed: %v", err)
	}
}

func TestReceiptTamperDetected(t *testing.T) {
	pub, priv := testKeys(t)
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	id := commitOne(t, l, lt, "deposit")
	l.GenerateDigest()
	r, err := l.GenerateReceipt(id, priv)
	if err != nil {
		t.Fatal(err)
	}
	// Claim a different principal.
	r2 := r
	r2.Entry.User = "mallory"
	if err := VerifyReceipt(r2, pub); err == nil {
		t.Fatal("tampered principal accepted")
	}
	// Claim a different commit time.
	r3 := r
	r3.Entry.CommitTS++
	if err := VerifyReceipt(r3, pub); err == nil {
		t.Fatal("tampered commit time accepted")
	}
	// Forged signature.
	r4 := r
	r4.Signature = append([]byte(nil), r.Signature...)
	r4.Signature[0] ^= 1
	if err := VerifyReceipt(r4, pub); err == nil {
		t.Fatal("forged signature accepted")
	}
	// Wrong public key.
	otherPub, _ := testKeys(t)
	if err := VerifyReceipt(r, otherPub); err == nil {
		t.Fatal("wrong key accepted")
	}
	// Different database name (signature binds it).
	r5 := r
	r5.DatabaseName = "other-db"
	if err := VerifyReceipt(r5, pub); err == nil {
		t.Fatal("receipt transplanted to another database accepted")
	}
}

func TestReceiptRequiresClosedBlock(t *testing.T) {
	_, priv := testKeys(t)
	l := openTestLedger(t, 1000)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	id := commitOne(t, l, lt, "pending")
	if _, err := l.GenerateReceipt(id, priv); !errors.Is(err, ErrBlockNotClosed) {
		t.Fatalf("open-block receipt: %v", err)
	}
	if _, err := l.GenerateDigest(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.GenerateReceipt(id, priv); err != nil {
		t.Fatalf("receipt after close: %v", err)
	}
}

func TestReceiptUnknownTransaction(t *testing.T) {
	_, priv := testKeys(t)
	l := openTestLedger(t, 10)
	mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	if _, err := l.GenerateReceipt(999999, priv); err == nil {
		t.Fatal("receipt for unknown transaction")
	}
}

func TestReceiptAmortizedSignature(t *testing.T) {
	// Receipts for different transactions in the same block share the
	// same signed message (block root) — one signature per block.
	pub, priv := testKeys(t)
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	id1 := commitOne(t, l, lt, "a")
	id2 := commitOne(t, l, lt, "b")
	l.GenerateDigest()
	r1, err := l.GenerateReceipt(id1, priv)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.GenerateReceipt(id2, priv)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BlockID != r2.BlockID {
		t.Skip("transactions landed in different blocks")
	}
	if string(r1.Signature) != string(r2.Signature) {
		t.Fatal("same-block receipts should reuse one signature")
	}
	if err := VerifyReceipt(r1, pub); err != nil {
		t.Fatal(err)
	}
	if err := VerifyReceipt(r2, pub); err != nil {
		t.Fatal(err)
	}
}

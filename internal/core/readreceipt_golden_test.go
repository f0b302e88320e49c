package core

import (
	"bytes"
	"crypto/ed25519"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// goldenReadReceipt is the receipt JSON this scenario produced at the
// commit before read receipts were rebuilt on one snapshot scan per table
// (PR 12). The receipt format is a public artifact: any byte of
// difference is a compatibility break, not a refactoring detail.
const goldenReadReceipt = "testdata/read_receipt_golden.json"

// TestReadReceiptGolden replays a fixed history — logical clock, fixed
// signing seed, two tables, two blocks, an update, a delete and a version
// superseded after the snapshot was pinned — and requires the receipt to
// match the checked-in bytes. SQLLEDGER_UPDATE_GOLDEN=1 rewrites the file.
func TestReadReceiptGolden(t *testing.T) {
	var tick atomic.Int64
	tick.Store(1_700_000_000_000_000_000)
	// The block size is never reached, so blocks close only where this
	// test forces them to and the clock is drawn in a fixed order.
	l, err := Open(Options{
		Dir: t.TempDir(), Name: "golden", BlockSize: 1000,
		Clock: func() int64 { return tick.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x5a}, ed25519.SeedSize))

	accounts := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	events := mustLedgerTable(t, l, "events", engine.LedgerAppendOnly)

	tx := l.Begin("alice")
	for _, name := range []string{"a1", "a2", "a3"} {
		if err := tx.Insert(accounts, account(name, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Insert(events, account("opened", 3)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if _, err := l.GenerateDigest(); err != nil { // block boundary
		t.Fatal(err)
	}
	tx = l.Begin("bob")
	for _, name := range []string{"b1", "b2"} {
		if err := tx.Insert(accounts, account(name, 20)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tx = l.Begin("carol")
	if err := tx.Update(accounts, account("b2", 99)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(accounts, sqltypes.NewNVarChar("a3")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(events, account("closed", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	rt := l.BeginReadOnlyForReceipt()
	if _, ok, err := rt.Get(accounts, sqltypes.NewNVarChar("b2")); err != nil || !ok {
		t.Fatalf("snapshot get: ok=%v err=%v", ok, err)
	}
	for _, lt := range []*LedgerTable{events, accounts} {
		if err := rt.Scan(lt, func(sqltypes.Row) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede a version the snapshot already read.
	tx = l.Begin("mallory")
	if err := tx.Update(accounts, account("a1", -1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	r, err := rt.CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReadReceipt(r, priv.Public().(ed25519.PublicKey)); err != nil {
		t.Fatal(err)
	}
	got := append(r.JSON(), '\n')
	if os.Getenv("SQLLEDGER_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenReadReceipt), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReadReceipt, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenReadReceipt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read receipt differs from %s:\n got %s\nwant %s", goldenReadReceipt, got, want)
	}
}

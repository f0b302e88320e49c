package core

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/merkle"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
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

// receiptOf snapshot-reads the named accounts under a receipt-collecting
// transaction and returns what CloseWithReceipt gives.
func receiptOf(t *testing.T, l *DB, lt *LedgerTable, priv ed25519.PrivateKey, names ...string) (ReadReceipt, error) {
	t.Helper()
	rt := l.BeginReadOnlyForReceipt()
	for _, name := range names {
		if _, ok, err := rt.Get(lt, sqltypes.NewNVarChar(name)); err != nil || !ok {
			t.Fatalf("snapshot get %s: ok=%v err=%v", name, ok, err)
		}
	}
	return rt.CloseWithReceipt(priv)
}

// TestReadReceiptTamperAtReceiptTime: a receipt proves a row from the log
// frame of the transaction that created it, checked against the root that
// transaction recorded, so it refuses — naming the table and the
// transaction — a stored row rewritten in place after commit (its leaf is
// not in the tree), the frame itself rewritten under a valid CRC (the tree
// is not the recorded one), and a frame the log does not have.
func TestReadReceiptTamperAtReceiptTime(t *testing.T) {
	_, priv := testKeys(t)
	cases := []struct {
		name   string
		tamper func(t *testing.T, l *DB, lt *LedgerTable, e *wal.LedgerEntry)
	}{
		{"stored row rewritten", func(t *testing.T, l *DB, lt *LedgerTable, _ *wal.LedgerEntry) {
			key := sqltypes.EncodeKey(nil, sqltypes.NewNVarChar("victim"))
			if err := l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
				r[1] = sqltypes.NewBigInt(1_000_000)
				return r
			}, false); err != nil {
				t.Fatal(err)
			}
		}},
		{"frame rewritten under a valid CRC", func(t *testing.T, l *DB, _ *LedgerTable, e *wal.LedgerEntry) {
			path := filepath.Join(l.Engine().Dir(), "wal.log")
			lsn := l.frameOf(e)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body := b[lsn+8 : lsn+8+int64(binary.LittleEndian.Uint32(b[lsn:]))]
			at := bytes.LastIndex(body, []byte("victim")) // in the after-image, past the key
			body[at] = 'w'
			binary.LittleEndian.PutUint32(b[lsn+4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(b[lsn:lsn+8+int64(len(body))], lsn); err != nil {
				t.Fatal(err)
			}
		}},
		{"frame LSN past the log's end", func(t *testing.T, l *DB, _ *LedgerTable, e *wal.LedgerEntry) {
			l.noteFrame(e.BlockID, e.Ordinal, 1<<40)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := openTestLedger(t, 4)
			lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
			txID := commitOne(t, l, lt, "victim")
			commitOne(t, l, lt, "bystander")
			e, err := l.entryOfTx(txID)
			if err != nil {
				t.Fatal(err)
			}
			c.tamper(t, l, lt, e)
			_, err = receiptOf(t, l, lt, priv, "bystander", "victim")
			if err == nil || !strings.Contains(err.Error(), "accounts") || !strings.Contains(err.Error(), fmt.Sprintf("transaction %d", txID)) {
				t.Fatalf("CloseWithReceipt: %v, want an error naming table accounts and transaction %d", err, txID)
			}
		})
	}
}

// TestReadReceiptFromBufferedFrame: under SyncNone a commit's frame can
// still be in the log's user-space buffer when a receipt needs it.
func TestReadReceiptFromBufferedFrame(t *testing.T) {
	pub, priv := testKeys(t)
	l, err := Open(Options{Dir: t.TempDir(), Name: "test", BlockSize: 4, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	txID := commitOne(t, l, lt, "buffered")
	e, err := l.entryOfTx(txID)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(l.Engine().Dir(), "wal.log")); err != nil || st.Size() > l.frameOf(e) {
		t.Fatalf("the frame is in the file already (%v, %v): nothing buffered to test", st.Size(), err)
	}
	r, err := receiptOf(t, l, lt, priv, "buffered")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReadReceipt(r, pub); err != nil {
		t.Fatal(err)
	}
}

// TestReadReceiptAfterRestart proves rows created before a checkpoint after
// a restart: redo did not see their commits, so their frames are found by
// the one pass over the log prefix — at the first receipt, not at Open —
// and the receipt proves exactly what the one before the restart did.
func TestReadReceiptAfterRestart(t *testing.T) {
	pub, priv := testKeys(t)
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 4)
	lt := seedReadLedger(t, l)
	before, err := readAll(t, l, lt).CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l = openLedgerAt(t, dir, 4)
	s := l
	for _, en := range before.Entries {
		e, err := s.entryOfTx(en.Entry.TxID)
		if err != nil {
			t.Fatal(err)
		}
		if s.frameOf(e) != 0 || s.prefixDone {
			t.Fatalf("transaction %d's frame is known before any receipt asked for it", e.TxID)
		}
	}
	if lt, err = l.LedgerTable("accounts"); err != nil {
		t.Fatal(err)
	}
	after, err := readAll(t, l, lt).CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReadReceipt(after, pub); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Rows, before.Rows) || !reflect.DeepEqual(after.Entries, before.Entries) {
		t.Fatalf("receipt after the restart differs:\n%s\nbefore:\n%s", after.JSON(), before.JSON())
	}
}

// FuzzParseReadReceipt: ParseReadReceipt and VerifyReadReceipt never panic,
// whatever the bytes, and bytes that verify under the golden receipt's key
// prove nothing the golden receipt does not. A mutant may prove less (drop
// rows), and may differ in what no signature covers — the snapshot time,
// the table names, the public key it carries, how a hash or a proof is
// spelled — so it is compared by what it proves, not field by field.
func FuzzParseReadReceipt(f *testing.F) {
	seed, err := os.ReadFile(goldenReadReceipt)
	if err != nil {
		f.Fatal(err)
	}
	golden, err := ParseReadReceipt(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"rows":[{"transaction_index":-1}],"transactions":[{"block_index":7}]}`))
	f.Add([]byte(`{"blocks":[{"transactions_root":"zz"}],"transactions":[{"merkle_proof":{"leaf_count":18446744073709551615}}]}`))
	pub := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x5a}, ed25519.SeedSize)).Public().(ed25519.PublicKey)
	if err := VerifyReadReceipt(golden, pub); err != nil {
		f.Fatal(err)
	}
	want := provenFacts(golden)
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := ParseReadReceipt(b)
		if err != nil || VerifyReadReceipt(r, pub) != nil {
			return
		}
		for fact := range provenFacts(r) {
			if !want[fact] {
				t.Fatalf("a receipt that verifies proves what the golden one does not: %s", fact)
			}
		}
	})
}

// provenFacts is what a verified read receipt proves — each block root
// signed, each entry in its block, each row in its entry's table root — in
// a form that does not depend on how the receipt spells it.
func provenFacts(r ReadReceipt) map[string]bool {
	hash := func(s string) string { h, _ := merkle.ParseHash(s); return h.String() }
	block := func(i int) string {
		return fmt.Sprintf("%s block %d root %s", r.DatabaseName, r.Blocks[i].BlockID, hash(r.Blocks[i].Root))
	}
	entry := func(en ReadReceiptTx) string {
		e := en.Entry
		s := fmt.Sprintf("%s: transaction %d ordinal %d at %d by %q", block(en.Block), e.TxID, e.Ordinal, e.CommitTS, e.User)
		for _, tr := range e.Roots {
			s += fmt.Sprintf(" table %d root %s", tr.TableID, hash(tr.Root))
		}
		return s
	}
	facts := make(map[string]bool)
	for i := range r.Blocks {
		facts[block(i)] = true
	}
	for _, en := range r.Entries {
		facts[entry(en)] = true
	}
	for _, row := range r.Rows {
		facts[fmt.Sprintf("%s: table %d row %x", entry(r.Entries[row.Entry]), row.TableID, row.RowData)] = true
	}
	return facts
}

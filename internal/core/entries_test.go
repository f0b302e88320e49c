package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// TestEntryLookupsDuringCheckpoints: a checkpoint drains the entry queue
// into sys_ledger_transactions while a writer commits. Every transaction
// committed before a lookup begins must be found — by the receipt path's
// lookup and by TransactionInfo — whenever the drain runs.
func TestEntryLookupsDuringCheckpoints(t *testing.T) {
	l := openTestLedger(t, 64)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	missing, looked := 0, 0
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); looked++ {
		txID := commitOne(t, l, lt, fmt.Sprintf("w-%d", looked))
		if _, err := l.entryOfTx(txID); err != nil {
			missing++
		}
		if _, _, _, ok := l.TransactionInfo(txID); !ok {
			missing++
		}
	}
	close(stop)
	wg.Wait()
	if missing > 0 {
		t.Fatalf("%d of %d lookups of committed transactions found nothing", missing, 2*looked)
	}
}

// sysTxRowOf returns the sys_ledger_transactions table and the key of
// txID's persisted entry.
func sysTxRowOf(t *testing.T, l *DB, txID uint64) (*engine.Table, []byte) {
	t.Helper()
	tab, err := l.Engine().Table(sysTxName)
	if err != nil {
		t.Fatal(err)
	}
	key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(txID)))
	if !tab.Has(key) {
		t.Fatalf("transaction %d has no persisted entry", txID)
	}
	return tab, key
}

// TestReceiptRefusesUnrecordedRoot: an entry rewritten after its block
// closed rebuilds a transactions root the block never recorded. A receipt
// must not sign that root — transaction or read receipt alike.
func TestReceiptRefusesUnrecordedRoot(t *testing.T) {
	_, priv := testKeys(t)
	l := openTestLedger(t, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	txID := commitOne(t, l, lt, "victim")
	if _, err := l.GenerateDigest(); err != nil { // closes the victim's block
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e, err := l.entryOfTx(txID)
	if err != nil {
		t.Fatal(err)
	}
	tab, key := sysTxRowOf(t, l, txID)
	if err := l.Engine().TamperUpdateRow(tab, key, func(r sqltypes.Row) sqltypes.Row {
		r[4] = sqltypes.NewNVarChar("mallory")
		return r
	}, true); err != nil {
		t.Fatal(err)
	}
	block := fmt.Sprintf("block %d", e.BlockID)
	if _, err := l.GenerateReceipt(txID, priv); err == nil || !strings.Contains(err.Error(), block) {
		t.Fatalf("GenerateReceipt: %v, want an error naming %s", err, block)
	}
	if _, err := receiptOf(t, l, lt, priv, "victim"); err == nil || !strings.Contains(err.Error(), block) {
		t.Fatalf("CloseWithReceipt: %v, want an error naming %s", err, block)
	}
}

// TestUnreadableTableHashes: a persisted entry whose table_hashes blob does
// not decode is an error naming the transaction — an invariant-3 issue in
// Verify and a failed receipt — not an entry that recorded no roots.
func TestUnreadableTableHashes(t *testing.T) {
	_, priv := testKeys(t)
	l := openTestLedger(t, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	txID := commitOne(t, l, lt, "victim")
	if _, err := l.GenerateDigest(); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tab, key := sysTxRowOf(t, l, txID)
	if err := l.Engine().TamperUpdateRow(tab, key, func(r sqltypes.Row) sqltypes.Row {
		r[5] = sqltypes.NewVarBinary([]byte{0xff, 0xff, 0xff})
		return r
	}, true); err != nil {
		t.Fatal(err)
	}
	named := fmt.Sprintf("transaction %d", txID)
	rep, err := l.Verify(nil, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, is := range rep.Issues {
		found = found || (is.Invariant == 3 && strings.Contains(is.Detail, named))
	}
	if !found {
		t.Fatalf("Verify reported no invariant-3 issue naming %s:\n%s", named, rep)
	}
	if _, err := l.GenerateReceipt(txID, priv); err == nil || !strings.Contains(err.Error(), named) {
		t.Fatalf("GenerateReceipt: %v, want an error naming %s", err, named)
	}
}

// TestRestorePositionAfterDrainedBlocks: a checkpoint drains entries of
// several blocks into sys_ledger_transactions, the last block still open,
// and two more commits reach only the WAL. Reopening finds the next
// position from the block index's last entry and that block's rows, and
// queues the WAL-only entries again.
func TestRestorePositionAfterDrainedBlocks(t *testing.T) {
	const size = 4
	dir := t.TempDir()
	l := openLedgerAt(t, dir, size)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	for i := 0; i < 13; i++ {
		commitOne(t, l, lt, acctName(i))
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitOne(t, l, lt, "wal-only-1")
	commitOne(t, l, lt, "wal-only-2")
	// The position of the next commit: a full block's next is the next block.
	next := func(b uint64, o uint32) [2]uint64 {
		if o >= size {
			b, o = b+1, 0
		}
		return [2]uint64{b, uint64(o)}
	}
	block, ord, queued := l.entries.position()
	if block < 3 || queued != 2 {
		t.Fatalf("before reopen: open block %d with %d entries queued, want several drained blocks and 2", block, queued)
	}
	l.Close()

	l2 := openLedgerAt(t, dir, size)
	b2, o2, q2 := l2.entries.position()
	if next(b2, o2) != next(block, ord) || q2 != queued {
		t.Fatalf("after reopen the next position is %v with %d queued, before it was %v with %d",
			next(b2, o2), q2, next(block, ord), queued)
	}
	lt2, err := l2.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	commitOne(t, l2, lt2, "post-reopen")
	d, err := l2.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l2, []Digest{d})
}

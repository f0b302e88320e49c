package core

import (
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// TestReopenMidBlock commits into a partially filled block, "crashes"
// (closes without a checkpoint), reopens and checks that the queue is
// rebuilt from COMMIT records and verification passes.
func TestReopenMidBlock(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 10)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	for i := 0; i < 4; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	l.Close()

	l2 := openLedgerAt(t, dir, 10)
	lt2, err := l2.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if lt2.Table().RowCount() != 4 {
		t.Fatalf("rows after reopen = %d", lt2.Table().RowCount())
	}
	// All four transactions must still be reachable in the ledger.
	d, err := l2.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l2, []Digest{d})
	// And new transactions continue in the right block position.
	tx := l2.Begin("u")
	tx.Insert(lt2, account("post-crash", 5))
	mustCommit(t, tx)
	d2, err := l2.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.VerifyDigestDerivation(d, d2); err != nil {
		t.Fatalf("chain continuity broken across reopen: %v", err)
	}
	verifyOK(t, l2, []Digest{d, d2})
}

// TestReopenAfterCheckpoint exercises the drain-at-checkpoint path: the
// queue is persisted to the system table inside the snapshot; after reopen
// nothing is lost and no entry is duplicated.
func TestReopenAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 5)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	for i := 0; i < 7; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint commits live only in the WAL.
	for i := 7; i < 9; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	l.Close()

	l2 := openLedgerAt(t, dir, 5)
	d, err := l2.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	rep := verifyOK(t, l2, []Digest{d})
	// 9 user txs + metadata registration txs; just ensure nothing is
	// missing or duplicated by checking row/entry consistency held.
	if rep.TransactionsChecked < 9 {
		t.Fatalf("transactions checked = %d", rep.TransactionsChecked)
	}
}

// TestDigestSurvivesReopen: a digest generated before a clean reopen still
// verifies afterwards (blocks are durable via the WAL-logged block table).
func TestDigestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 3)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 6)
	l.Close()

	l2 := openLedgerAt(t, dir, 3)
	verifyOK(t, l2, []Digest{d})
}

// TestTamperSurvivesOnlyUntilVerification: tamper, checkpoint (persisting
// the tampered state), reopen — verification still catches it because the
// hashes were recorded before the tampering.
func TestTamperPersistedAcrossReopenStillDetected(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 5)
	key := firstKeyOf(t, lt.Table())
	l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(666)
		return r
	}, true)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := openLedgerAt(t, dir, 100)
	verifyFails(t, l2, []Digest{d}, 4)
}

// TestLargeBlockBoundary drives exactly BlockSize transactions and checks
// the block closes with the right count, plus the next tx starts block 2.
func TestBlockBoundary(t *testing.T) {
	l := openTestLedger(t, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	// Metadata registration already used some slots; fill up with user
	// transactions and force closes via digest.
	for i := 0; i < 9; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	// All closed blocks must be dense: count recorded == entries present,
	// which verification checks; and the digest block must be the last.
	rep := verifyOK(t, l, []Digest{d})
	if rep.BlocksChecked < 2 {
		t.Fatalf("expected multiple blocks, got %d", rep.BlocksChecked)
	}
	var maxBlock int64 = -1
	l.shards[0].sysBlocks.Scan(func(_ []byte, r sqltypes.Row) bool {
		if r[0].Int() > maxBlock {
			maxBlock = r[0].Int()
		}
		return true
	})
	if uint64(maxBlock) != d.BlockID {
		t.Fatalf("digest block %d != max block %d", d.BlockID, maxBlock)
	}
}

// TestConcurrentLedgerCommits checks the commit-path block assignment and
// queue under concurrency, then verifies.
func TestConcurrentLedgerCommits(t *testing.T) {
	l := openTestLedger(t, 8)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	const goroutines = 6
	const perG = 20
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				tx := l.Begin("worker")
				if err := tx.Insert(lt, account(acctName(g*100+i)+string(rune('a'+g)), int64(i))); err != nil {
					errCh <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d})
}

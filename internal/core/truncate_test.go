package core

import (
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

func countRows(tab *engine.Table) int { return tab.RowCount() }

func TestTruncateLedger(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	// Build up history: inserts, then updates so history rows accumulate.
	for i := 0; i < 4; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	for i := 0; i < 4; i++ {
		tx := l.Begin("u")
		tx.Update(lt, account(acctName(i), int64(100+i)))
		mustCommit(t, tx)
	}
	d1, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	blocksBefore := countRows(l.shards[0].sysBlocks)
	txsBefore := countRows(l.shards[0].sysTx) + len(l.shards[0].queue)
	historyBefore := countRows(lt.History())
	if historyBefore != 4 {
		t.Fatalf("history rows = %d", historyBefore)
	}

	// Truncate everything before the middle of the chain.
	cut := d1.BlockID / 2
	if cut == 0 {
		t.Fatalf("need more blocks (have up to %d)", d1.BlockID)
	}
	if err := l.TruncateLedger(cut); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	// Blocks below the cut are gone; the chain starts exactly at it.
	var minBlock int64 = 1 << 62
	l.shards[0].sysBlocks.Scan(func(_ []byte, r sqltypes.Row) bool {
		if r[0].Int() < minBlock {
			minBlock = r[0].Int()
		}
		return true
	})
	if uint64(minBlock) != cut {
		t.Fatalf("chain should start at the cut: min=%d cut=%d", minBlock, cut)
	}
	_ = blocksBefore
	_ = txsBefore

	// The truncation is recorded in the audit ledger table.
	if countRows(l.shards[0].truncations.Table()) != 1 {
		t.Fatal("truncation not recorded")
	}

	// A fresh digest verifies; the pre-truncation digest is reported as a
	// warning (not verifiable), not as tampering.
	d2, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.Verify([]Digest{d2}, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("post-truncation verification failed:\n%s", rep)
	}
	if cut > 0 {
		repOld, err := l.Verify([]Digest{d1}, VerifyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// d1's block may or may not survive depending on where the cut
		// fell; if it is gone it must be a warning only.
		if !repOld.Ok() {
			t.Fatalf("old digest should warn, not fail:\n%s", repOld)
		}
	}

	// Current data still fully present.
	rtx := l.Begin("r")
	n := 0
	rtx.Scan(lt, func(r sqltypes.Row) bool {
		if r[1].Int() < 100 {
			t.Fatalf("stale row version surfaced: %v", r)
		}
		n++
		return true
	})
	rtx.Rollback()
	if n != 4 {
		t.Fatalf("rows after truncation = %d", n)
	}
}

func TestTruncateRefusesWhenTampered(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 6)
	key := firstKeyOf(t, lt.Table())
	l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(999)
		return r
	}, true)
	if err := l.TruncateLedger(1); err == nil {
		t.Fatal("truncation must refuse to destroy tampering evidence")
	}
}

func TestTruncateBeyondClosedBlocksRejected(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 2)
	if err := l.TruncateLedger(50); err == nil {
		t.Fatal("truncating past the chain accepted")
	}
}

func TestTruncateThenContinueAndVerify(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	for i := 0; i < 6; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	d, _ := l.GenerateDigest()
	if err := l.TruncateLedger(d.BlockID / 2); err != nil {
		t.Fatal(err)
	}
	// Keep working after truncation.
	for i := 6; i < 9; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	d2, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.Verify([]Digest{d2}, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("verification after truncation + new work:\n%s", rep)
	}
}

package core

import (
	"fmt"
	"strings"
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
	blocksBefore := countRows(l.sysBlocks)
	_, _, queued := l.entries.position()
	txsBefore := countRows(l.entries.table) + queued
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
	l.sysBlocks.Scan(func(_ []byte, r sqltypes.Row) bool {
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
	if countRows(l.truncations.Table()) != 1 {
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

// TestTruncateRefusesUndecodableSystemRow: a sys_ledger_transactions or
// sys_ledger_blocks row below the cut that an attacker cut short is an
// error naming the transaction or block, from TruncateLedger (whose Verify
// finds it first) and from the surgery itself (which meets it when the edit
// lands after Verify), and nothing is deleted.
func TestTruncateRefusesUndecodableSystemRow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		table   func(s *DB) *engine.Table
		surgery func(s *DB) error
	}{
		{sysTxName, func(s *DB) *engine.Table { return s.entries.table },
			func(s *DB) error { return s.entries.dropBefore(2) }},
		{sysBlocksName, func(s *DB) *engine.Table { return s.sysBlocks },
			func(s *DB) error { _, err := s.blocksBefore(2); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := openTestLedger(t, 2)
			lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
			seedAccounts(t, l, lt, 8)
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			commitOne(t, l, lt, "queued") // one entry stays on the queue
			s := l
			tab := tc.table(s)
			key := firstKeyOf(t, tab)
			stored, _ := tab.LookupStored(key)
			if err := l.Engine().TamperSetStoredRow(tab, key, stored[:len(stored)-1]); err != nil {
				t.Fatal(err)
			}
			counts := func() [5]int {
				_, _, queued := s.entries.position()
				return [5]int{countRows(s.entries.table), queued, countRows(s.sysBlocks),
					countRows(lt.Table()), countRows(s.truncations.Table())}
			}
			before := counts()
			named := keyName(key)
			for what, err := range map[string]error{"TruncateLedger": l.TruncateLedger(2), "the surgery": tc.surgery(s)} {
				if err == nil || !strings.Contains(err.Error(), " "+named+":") {
					t.Fatalf("%s: %v, want an error naming %s", what, err, named)
				}
			}
			if after := counts(); after != before {
				t.Fatalf("(transactions, queued, blocks, accounts, truncations) %v → %v after a refused truncation", before, after)
			}
		})
	}
}

// TestTruncateRefusesUndecodableLedgerRow: a current or history row an
// attacker cut short is an error naming it, from TruncateLedger (whose
// Verify finds it first) and from the scans that pick the rows to refresh
// and to delete (which meet it when the edit lands after Verify), never a
// panic, and nothing is refreshed or deleted.
func TestTruncateRefusesUndecodableLedgerRow(t *testing.T) {
	for _, history := range []bool{false, true} {
		t.Run(fmt.Sprintf("history=%v", history), func(t *testing.T) {
			l := openTestLedger(t, 2)
			lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
			seedAccounts(t, l, lt, 8)
			tx := l.Begin("u")
			if err := tx.Update(lt, account(acctName(3), 33)); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s, tab := l, lt.Table()
			if history {
				tab = lt.History()
			}
			key := firstKeyOf(t, tab)
			stored, _ := tab.LookupStored(key)
			if err := l.Engine().TamperSetStoredRow(tab, key, stored[:len(stored)-1]); err != nil {
				t.Fatal(err)
			}
			counts := func() [4]int {
				return [4]int{countRows(s.entries.table), countRows(s.sysBlocks), countRows(lt.Table()), countRows(lt.History())}
			}
			before := counts()
			_, _, err := s.rowsOfTx(map[uint64]bool{})
			for what, err := range map[string]error{"TruncateLedger": l.TruncateLedger(2), "the scan": err} {
				if err == nil || (what == "the scan" && !strings.Contains(err.Error(), tab.Name()+" row "+keyName(key)+" ")) {
					t.Fatalf("%s: %v, want an error naming row %s of %s", what, err, keyName(key), tab.Name())
				}
			}
			if after := counts(); after != before {
				t.Fatalf("(transactions, blocks, accounts, history) %v → %v after a refused truncation", before, after)
			}
		})
	}
}

package core

import (
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// The engine decodes every row of a scan into one buffer, so a callback
// that keeps the row it was given keeps the last row of the scan. The
// tests below deliver at least two rows to every in-tree callback that
// keeps rows and check that the first survived the second.

// TestChainWalkKeepsEveryBlockRow: checkChain collects the block rows and
// hashes them after the scan. With the rows not cloned, every block would
// be checked as the last one and the walk would report gaps and broken
// links on a clean ledger.
func TestChainWalkKeepsEveryBlockRow(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	var digests []Digest
	for i := 0; i < 8; i++ {
		tx := l.Begin("u")
		if err := tx.Insert(lt, account(string(rune('a'+i)), int64(i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		if i%3 == 2 {
			d, err := l.GenerateDigest()
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, d)
		}
	}
	var findings []string
	emit := func(f finding) bool { findings = append(findings, f.detail); return true }
	all := l.shards[0].checkChain(chainCheck{digests: digests, entries: byBlock(l)}, emit)
	if all.blocks < 3 || len(findings) != 0 {
		t.Fatalf("full walk: %d blocks, findings %v", all.blocks, findings)
	}
	// A range walk reads block From-1 for its link and the range after it.
	part := l.shards[0].checkChain(chainCheck{blocks: &BlockRange{From: 1, To: 2}, entries: byBlock(l)}, emit)
	if part.blocks != 2 || part.through != 2 || len(findings) != 0 {
		t.Fatalf("range walk: %d blocks through %d, findings %v", part.blocks, part.through, findings)
	}
	verifyOK(t, l, digests)
}

func byBlock(l *DB) map[uint64][]*wal.LedgerEntry {
	_, b := l.shards[0].ledgerEntries()
	return b
}

// TestShardedScanRowIsCallbackScoped: ShardedTx.Scan hands each shard's
// buffer straight through; a cloned row outlives the scan, across the
// shard boundary too.
func TestShardedScanRowIsCallbackScoped(t *testing.T) {
	s := openShards(t, t.TempDir(), 2)
	defer s.Close()
	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	stx := s.Begin("u")
	want := map[string]int64{}
	for i := 0; i < 12; i++ {
		name := string(rune('a' + i))
		want[name] = int64(i)
		if err := stx.Insert(st, acct(name, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := stx.Commit(); err != nil {
		t.Fatal(err)
	}
	stx = s.Begin("u")
	defer stx.Rollback()
	var cloned []sqltypes.Row
	if err := stx.Scan(st, func(r sqltypes.Row) bool {
		cloned = append(cloned, r.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(cloned) != len(want) {
		t.Fatalf("scan delivered %d rows, want %d", len(cloned), len(want))
	}
	for _, r := range cloned {
		if bal, ok := want[r[0].Str]; !ok || bal != r[1].Int() {
			t.Errorf("cloned row %v is not a row that was inserted", r)
		}
		delete(want, r[0].Str)
	}
}

// TestLedgerRowsAreEncodedAtTheWriteBoundary is the write-side mirror: a
// row handed to Insert, Update or InsertBatch, returned by Get, or
// delivered by a scan can be scribbled on afterwards without changing what
// a later read returns or what Verify recomputes — the row hash and the
// stored bytes were both taken before the call returned.
func TestLedgerRowsAreEncodedAtTheWriteBoundary(t *testing.T) {
	l := openTestLedger(t, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	scribble := func(r sqltypes.Row) {
		for i := range r {
			r[i] = sqltypes.NewNVarChar("scribbled")
		}
	}
	want := func(tx *Tx, name string, bal int64) {
		t.Helper()
		r, ok, err := tx.Get(lt, sqltypes.NewNVarChar(name))
		if err != nil || !ok || len(r) != 2 || r[0].Str != name || r[1].Int() != bal {
			t.Fatalf("Get(%s) = %v ok=%v err=%v, want balance %d", name, r, ok, err, bal)
		}
		scribble(r)
	}

	tx := l.Begin("u")
	ins := account("a", 1)
	if err := tx.Insert(lt, ins); err != nil {
		t.Fatal(err)
	}
	scribble(ins)
	batch := make([]sqltypes.Row, 2*batchParallelMin)
	for i := range batch {
		batch[i] = account("batch-"+string(rune('a'+i)), int64(i))
	}
	if err := tx.InsertBatch(lt, batch); err != nil {
		t.Fatal(err)
	}
	for _, r := range batch {
		scribble(r)
	}
	want(tx, "a", 1) // the transaction's own write, twice: the first copy was scribbled on
	want(tx, "a", 1)
	upd := account("a", 2) // an update of its own insert: the history row is built from the before-image
	if err := tx.Update(lt, upd); err != nil {
		t.Fatal(err)
	}
	scribble(upd)
	if err := tx.Scan(lt, func(r sqltypes.Row) bool { scribble(r); return true }); err != nil {
		t.Fatal(err)
	}
	want(tx, "a", 2)
	want(tx, "batch-b", 1)
	mustCommit(t, tx)

	tx = l.Begin("u")
	want(tx, "a", 2)
	if err := tx.ScanPrefix(lt, func(r sqltypes.Row) bool { scribble(r); return true }); err != nil {
		t.Fatal(err)
	}
	upd = account("a", 3) // the before-image comes from storage this time
	if err := tx.Update(lt, upd); err != nil {
		t.Fatal(err)
	}
	scribble(upd)
	if err := tx.Delete(lt, sqltypes.NewNVarChar("batch-a")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	rt := l.BeginReadOnly()
	r, ok, err := rt.Get(lt, sqltypes.NewNVarChar("a"))
	if err != nil || !ok || r[1].Int() != 3 {
		t.Fatalf("snapshot Get = %v ok=%v err=%v", r, ok, err)
	}
	scribble(r)
	if err := rt.Scan(lt, func(r sqltypes.Row) bool { scribble(r); return true }); err != nil {
		t.Fatal(err)
	}
	rt.Close()

	tx = l.Begin("u")
	want(tx, "a", 3)
	want(tx, "batch-c", 2)
	if _, ok, _ := tx.Get(lt, sqltypes.NewNVarChar("batch-a")); ok {
		t.Fatal("deleted row is back")
	}
	tx.Rollback()
	if n := lt.History().RowCount(); n != 3 {
		t.Fatalf("history holds %d rows, want 3", n)
	}
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d})
}

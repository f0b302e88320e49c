package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// logicalClock returns a deterministic Options.Clock: a strictly
// increasing nanosecond counter from a fixed epoch. Two ledgers driven
// through the same sequence of operations with separate logical clocks
// produce byte-identical entries, block hashes and digests.
func logicalClock() func() int64 {
	var c atomic.Int64
	c.Store(1_700_000_000_000_000_000)
	return func() int64 { return c.Add(1) }
}

func openDeterministicLedger(t *testing.T, blockSize uint32) *DB {
	t.Helper()
	l, err := Open(Options{
		Dir:         t.TempDir(),
		Name:        "test",
		BlockSize:   blockSize,
		LockTimeout: 250 * time.Millisecond,
		Clock:       logicalClock(),
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// ingestScenario drives one ledger through a fixed sequence of inserts,
// either one row at a time (batch=false) or through InsertBatch. The
// scenario deliberately covers: a batch below the parallel threshold, a
// savepoint/rollback in the middle of a transaction with re-ingest of
// the same rows, a large parallel batch, and a keyless append-only
// (heap) table that takes the serial fallback inside InsertBatch.
func ingestScenario(t *testing.T, l *DB, batch bool) (*LedgerTable, *LedgerTable) {
	t.Helper()
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	heapSchema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("msg", sqltypes.TypeNVarChar),
		sqltypes.Col("v", sqltypes.TypeBigInt),
	})
	audit, err := l.CreateLedgerTable("audit", heapSchema, engine.LedgerAppendOnly)
	if err != nil {
		t.Fatalf("create audit table: %v", err)
	}
	insert := func(tx *Tx, target *LedgerTable, rows []sqltypes.Row) {
		t.Helper()
		if batch {
			if err := tx.InsertBatchParallel(target, rows, 4); err != nil {
				t.Fatalf("insert batch: %v", err)
			}
			return
		}
		for _, r := range rows {
			if err := tx.Insert(target, r); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	rows := make([]sqltypes.Row, 64)
	for i := range rows {
		rows[i] = account(fmt.Sprintf("acct-%03d", i), int64(i*7-100))
	}

	// tx1: small batch — below batchParallelMin in batch mode.
	tx := l.Begin("loader")
	insert(tx, lt, rows[:5])
	mustCommit(t, tx)

	// tx2: savepoint taken mid-transaction, a batch rolled back, then the
	// same rows re-ingested. The Merkle trees must rewind with the writes.
	tx = l.Begin("loader")
	insert(tx, lt, rows[5:10])
	sp := tx.Savepoint()
	insert(tx, lt, rows[10:40])
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatalf("rollback to savepoint: %v", err)
	}
	insert(tx, lt, rows[10:40])
	mustCommit(t, tx)

	// tx3: a large parallel batch plus the heap-table fallback in one tx.
	heapRows := make([]sqltypes.Row, 20)
	for i := range heapRows {
		heapRows[i] = sqltypes.Row{
			sqltypes.NewNVarChar(fmt.Sprintf("event-%d", i)),
			sqltypes.NewBigInt(int64(i)),
		}
	}
	tx = l.Begin("loader")
	insert(tx, lt, rows[40:])
	insert(tx, audit, heapRows)
	mustCommit(t, tx)
	return lt, audit
}

func collectEntries(t *testing.T, l *DB) []*wal.LedgerEntry {
	t.Helper()
	l.shards[0].closeMu.Lock()
	latest := l.shards[0].closedThrough
	l.shards[0].closeMu.Unlock()
	var out []*wal.LedgerEntry
	for b := int64(0); b <= latest; b++ {
		out = append(out, l.shards[0].entriesOfBlock(uint64(b))...)
	}
	return out
}

// TestInsertBatchEquivalence is the property pinning the bulk-DML fast
// path: the same rows ingested through InsertBatch must produce ledger
// artifacts byte-identical to one-at-a-time inserts — per-table Merkle
// roots, ledger entries, block hashes and database digests. Both ledgers
// run on logical clocks so even commit timestamps line up.
func TestInsertBatchEquivalence(t *testing.T) {
	serialL := openDeterministicLedger(t, 100)
	batchL := openDeterministicLedger(t, 100)
	ingestScenario(t, serialL, false)
	ingestScenario(t, batchL, true)

	ds, err := serialL.GenerateDigest()
	if err != nil {
		t.Fatalf("serial digest: %v", err)
	}
	db, err := batchL.GenerateDigest()
	if err != nil {
		t.Fatalf("batch digest: %v", err)
	}
	if string(ds.JSON()) != string(db.JSON()) {
		t.Fatalf("digests differ:\nserial: %s\nbatch:  %s", ds.JSON(), db.JSON())
	}

	se := collectEntries(t, serialL)
	be := collectEntries(t, batchL)
	if len(se) == 0 || len(se) != len(be) {
		t.Fatalf("entry counts: serial=%d batch=%d", len(se), len(be))
	}
	for i := range se {
		// Per-table Merkle roots first, for a sharper failure message.
		if !reflect.DeepEqual(se[i].Roots, be[i].Roots) {
			t.Errorf("tx %d: table roots differ:\nserial: %v\nbatch:  %v",
				se[i].TxID, se[i].Roots, be[i].Roots)
		}
		if !reflect.DeepEqual(se[i], be[i]) {
			t.Errorf("ledger entry %d differs:\nserial: %+v\nbatch:  %+v", i, se[i], be[i])
		}
	}

	// A second digest after more activity pins the block chain linkage.
	for _, l := range []*DB{serialL, batchL} {
		lt, err := l.LedgerTable("accounts")
		if err != nil {
			t.Fatal(err)
		}
		tx := l.Begin("loader")
		if err := tx.Update(lt, account("acct-000", 999)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	ds2, err := serialL.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	db2, err := batchL.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if string(ds2.JSON()) != string(db2.JSON()) {
		t.Fatalf("second digests differ:\nserial: %s\nbatch:  %s", ds2.JSON(), db2.JSON())
	}
	if err := serialL.VerifyDigestDerivation(ds, ds2); err != nil {
		t.Fatal(err)
	}
	if err := batchL.VerifyDigestDerivation(db, db2); err != nil {
		t.Fatal(err)
	}
	verifyOK(t, serialL, []Digest{ds, ds2})
	verifyOK(t, batchL, []Digest{db, db2})
}

// TestInsertBatchDuplicateKey checks the error path: a duplicate key in
// the middle of a batch surfaces the engine error, and rolling the
// transaction back leaves a ledger that still verifies.
func TestInsertBatchDuplicateKey(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	rows := make([]sqltypes.Row, 32)
	for i := range rows {
		rows[i] = account(fmt.Sprintf("acct-%03d", i), int64(i))
	}
	rows[20] = account("acct-003", 99) // duplicates rows[3]

	tx := l.Begin("loader")
	if err := tx.InsertBatch(lt, rows); err == nil {
		t.Fatal("duplicate key in batch accepted")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if lt.Table().RowCount() != 0 {
		t.Fatalf("rows leaked past rollback: %d", lt.Table().RowCount())
	}

	// The ledger remains usable and consistent afterwards.
	tx = l.Begin("loader")
	if err := tx.InsertBatch(lt, rows[:20]); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	verifyOK(t, l, nil)
}

// TestReadOnlyTxAllocatesNoState pins the lazy txState: a ledger
// transaction that only reads must never materialize the per-table
// Merkle tree map or touch the state pool.
func TestReadOnlyTxAllocatesNoState(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	tx := l.Begin("w")
	if tx.state != nil {
		t.Fatal("fresh tx allocated ledger state before any write")
	}
	if err := tx.Insert(lt, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	if tx.state == nil {
		t.Fatal("write did not materialize ledger state")
	}
	mustCommit(t, tx)
	if tx.state != nil {
		t.Fatal("commit did not release ledger state to the pool")
	}

	rtx := l.Begin("r")
	if _, ok, err := rtx.Get(lt, sqltypes.NewNVarChar("a")); err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	count := 0
	if err := rtx.Scan(lt, func(sqltypes.Row) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("scan rows = %d", count)
	}
	if rtx.state != nil {
		t.Fatal("read-only tx allocated ledger state")
	}
	if err := rtx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Rollback-only path releases state too.
	wtx := l.Begin("w")
	wtx.Insert(lt, account("b", 2))
	wtx.Rollback()
	if wtx.state != nil {
		t.Fatal("rollback did not release ledger state")
	}
}

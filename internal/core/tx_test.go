package core

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

func TestTxGetAndScanPrefix(t *testing.T) {
	l := openTestLedger(t, 100)
	if l.Name() != "test" {
		t.Fatalf("Name = %q", l.Name())
	}
	schema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("region", sqltypes.TypeNVarChar),
		sqltypes.Col("id", sqltypes.TypeBigInt),
		sqltypes.Col("amount", sqltypes.TypeBigInt),
	}, "region", "id")
	lt, err := l.CreateLedgerTable("sales", schema, engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	for _, region := range []string{"east", "west"} {
		for i := int64(1); i <= 3; i++ {
			if err := tx.Insert(lt, sqltypes.Row{
				sqltypes.NewNVarChar(region), sqltypes.NewBigInt(i), sqltypes.NewBigInt(i * 10),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustCommit(t, tx)

	tx = l.Begin("r")
	defer tx.Rollback()
	// Point get on a composite key returns visible columns only.
	r, ok, err := tx.Get(lt, sqltypes.NewNVarChar("west"), sqltypes.NewBigInt(2))
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if len(r) != 3 || r[2].Int() != 20 {
		t.Fatalf("row = %v", r)
	}
	if _, ok, _ := tx.Get(lt, sqltypes.NewNVarChar("north"), sqltypes.NewBigInt(1)); ok {
		t.Fatal("phantom row")
	}
	// Prefix scan over the first key column.
	var got []int64
	if err := tx.ScanPrefix(lt, func(r sqltypes.Row) bool {
		got = append(got, r[1].Int())
		return true
	}, sqltypes.NewNVarChar("east")); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("prefix scan = %v", got)
	}
	verifyOK(t, l, nil)
}

func TestTxRawForRegularTables(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	plain, err := l.Engine().CreateTable(engine.CreateTableSpec{
		Name: "scratch", Schema: accountsSchema(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// One transaction touching both a ledger table and a regular table:
	// only the ledger table contributes to the entry.
	tx := l.Begin("u")
	if err := tx.Insert(lt, account("ledgered", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Raw().Insert(plain, account("plain", 2)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if plain.RowCount() != 1 {
		t.Fatal("regular-table write lost")
	}
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d})
	// Tampering with the regular table is invisible to the ledger — by
	// design, it is not a ledger table.
	key := firstKeyOf(t, plain)
	l.Engine().TamperUpdateRow(plain, key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(999)
		return r
	}, true)
	verifyOK(t, l, []Digest{d})
}

func TestLedgerTableWithNullValues(t *testing.T) {
	l := openTestLedger(t, 100)
	schema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("id", sqltypes.TypeBigInt),
		sqltypes.NullableCol("note", sqltypes.TypeNVarChar),
		sqltypes.NullableCol("score", sqltypes.TypeFloat),
	}, "id")
	lt, err := l.CreateLedgerTable("nullable", schema, engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	if err := tx.Insert(lt, sqltypes.Row{
		sqltypes.NewBigInt(1), sqltypes.NewNull(sqltypes.TypeNVarChar), sqltypes.NewFloat(1.5),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(lt, sqltypes.Row{
		sqltypes.NewBigInt(2), sqltypes.NewNVarChar("x"), sqltypes.NewNull(sqltypes.TypeFloat),
	}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	// NULL-flipping updates must hash/verify correctly.
	tx = l.Begin("u")
	if err := tx.Update(lt, sqltypes.Row{
		sqltypes.NewBigInt(1), sqltypes.NewNVarChar("now set"), sqltypes.NewNull(sqltypes.TypeFloat),
	}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d})
	// Swapping which column is NULL in storage must be detected (the
	// NULL-remap attack, §3.5.1).
	var key []byte
	lt.Table().Scan(func(k []byte, r sqltypes.Row) bool {
		if r[0].Int() == 2 {
			key = append([]byte(nil), k...)
			return false
		}
		return true
	})
	l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewNull(sqltypes.TypeNVarChar)
		r[2] = sqltypes.NewFloat(0) // move the "present" flag to the other column
		return r
	}, true)
	verifyFails(t, l, []Digest{d}, 4)
}

func TestCommitTSReturnsTimestamp(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	tx := l.Begin("u")
	if err := tx.Insert(lt, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	ts, err := tx.CommitTS()
	if err != nil || ts == 0 {
		t.Fatalf("CommitTS = %d, %v", ts, err)
	}
	if got := l.Engine().LastCommitTS(); got != ts {
		t.Fatalf("LastCommitTS = %d, want %d", got, ts)
	}
}

// TestCommitAfterCloseLeavesLedgerUntouched: a commit on a closed database
// fails before it is sequenced — no commit timestamp is taken, no block
// ordinal is assigned and no entry joins the ledger queue.
func TestCommitAfterCloseLeavesLedgerUntouched(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	tx := l.Begin("alice")
	if err := tx.Insert(lt, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	tx = l.Begin("alice")
	if err := tx.Insert(lt, account("b", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	state := func() (int64, int, uint32) {
		_, ord, queued := l.entries.position()
		return l.edb.LastCommitTS(), queued, ord
	}
	ts, queued, ordinal := state()
	if err := tx.Commit(); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("commit on a closed database: %v, want engine.ErrClosed", err)
	}
	if ts2, queued2, ordinal2 := state(); ts2 != ts || queued2 != queued || ordinal2 != ordinal {
		t.Fatalf("failed commit moved (lastCommitTS, queue, ordinal) from (%d, %d, %d) to (%d, %d, %d)",
			ts, queued, ordinal, ts2, queued2, ordinal2)
	}
	tx.Rollback()
}

// TestWriteAllocationBudget is what a ledger DML may allocate over the same
// DML on a regular table of the visible columns, in a transaction that has
// written before (its Merkle tree, scratch row and maps exist): an Insert
// nothing — the row is expanded into the transaction's scratch row and
// encoded once, as the twin encodes it — and an Update two objects, the
// history image and the row id it is stored under, less the before-image
// the twin decodes and the ledger layer never builds. A history image is
// allocated at exactly its size.
func TestWriteAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	l := openTestLedger(t, 100000)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	twin, err := l.Engine().CreateTable(engine.CreateTableSpec{Name: "twin", Schema: accountsSchema()})
	if err != nil {
		t.Fatal(err)
	}
	// Rows are built before the measurement; 900 inserts first, so that no
	// map of either transaction grows while the next 2×201 are counted.
	const warm, runs = 900, 201
	rows := make([]sqltypes.Row, warm+2*runs)
	for i := range rows {
		rows[i] = account(fmt.Sprintf("acct-%05d", i), int64(i))
	}
	ledgerTx, regularTx := l.Begin("u"), l.Begin("u")
	defer ledgerTx.Rollback()
	defer regularTx.Rollback()
	li, ri := 0, 0
	insertLedger := func() {
		if err := ledgerTx.Insert(lt, rows[li]); err != nil {
			t.Fatal(err)
		}
		li++
	}
	insertRegular := func() {
		if _, err := regularTx.Raw().Insert(twin, rows[ri]); err != nil {
			t.Fatal(err)
		}
		ri++
	}
	for i := 0; i < warm; i++ {
		insertLedger()
		insertRegular()
	}
	if ledger, regular := testing.AllocsPerRun(runs-1, insertLedger), testing.AllocsPerRun(runs-1, insertRegular); ledger > regular {
		t.Errorf("Insert: %.0f allocs on the ledger table, %.0f on the regular twin", ledger, regular)
	}
	n := int64(0)
	updateLedger := func() {
		n++
		if err := ledgerTx.Update(lt, account("acct-00007", n)); err != nil {
			t.Fatal(err)
		}
	}
	updateRegular := func() {
		n++
		if _, err := regularTx.Raw().Update(twin, account("acct-00007", n)); err != nil {
			t.Fatal(err)
		}
	}
	if ledger, regular := testing.AllocsPerRun(runs-1, updateLedger), testing.AllocsPerRun(runs-1, updateRegular); ledger > regular+2 {
		t.Errorf("Update: %.0f allocs on the ledger table, %.0f on the regular twin, budget +2", ledger, regular)
	}
	if err := ledgerTx.Delete(lt, sqltypes.NewNVarChar("acct-00008")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, ledgerTx)
	images := lt.History().ScanRangeStored(nil, nil, func(_, stored []byte) bool {
		if cap(stored) != len(stored) {
			t.Errorf("history image of %d bytes in an allocation of %d", len(stored), cap(stored))
		}
		return true
	})
	if images != runs+1 {
		t.Fatalf("history holds %d images, want %d", images, runs+1)
	}
	verifyOK(t, l, nil)
}

// TestUpdateOfBytesThatAreNoRowFails: ledger DML works on the stored bytes,
// so storage an attacker overwrote with bytes that are no row fails an
// Update or Delete with an error — the before-image cannot be spliced —
// where a decoding read of it panics; verification reports the row. The
// failed transaction is to be rolled back.
func TestUpdateOfBytesThatAreNoRowFails(t *testing.T) {
	l := openTestLedger(t, 1000)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	tx := l.Begin("u")
	if err := tx.Insert(lt, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	key := lt.Table().KeyFor(sqltypes.Row{sqltypes.NewNVarChar("a")})
	if err := l.Engine().TamperSetStoredRow(lt.Table(), key, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	for name, dml := range map[string]func(tx *Tx) error{
		"update": func(tx *Tx) error { return tx.Update(lt, account("a", 2)) },
		"delete": func(tx *Tx) error { return tx.Delete(lt, sqltypes.NewNVarChar("a")) },
	} {
		tx = l.Begin("u")
		if err := dml(tx); err == nil {
			t.Errorf("%s over bytes that are no row succeeded", name)
		}
		tx.Rollback() // the engine write was buffered before the splice failed
	}
	if rep, err := l.Verify(nil, VerifyOptions{}); err != nil || rep.Ok() {
		t.Fatalf("verification of the overwritten row: %v, %v", rep, err)
	}
}

// TestWritelessTxTakesNoOrdinal pins the empty-transaction rule: a ledger
// transaction that only reads, or that rolls back to a savepoint taken
// before its only write, commits without taking an ordinal, queuing an
// entry or growing the log.
func TestWritelessTxTakesNoOrdinal(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	commitOne(t, l, lt, "a")
	state := func() [4]int64 {
		block, ord, queued := l.entries.position()
		return [4]int64{int64(block), int64(ord), int64(queued), l.Obs().Snapshot().CounterValue(obs.WALAppendBytes)}
	}
	for _, tc := range []struct {
		name   string
		script func(tx *Tx) error
	}{
		{"read only", func(tx *Tx) error {
			_, ok, err := tx.Get(lt, sqltypes.NewNVarChar("a"))
			if err == nil && !ok {
				err = fmt.Errorf("row a not found")
			}
			return err
		}},
		{"rolled back to a savepoint before its only write", func(tx *Tx) error {
			sp := tx.Savepoint()
			if err := tx.Insert(lt, account("b", 2)); err != nil {
				return err
			}
			return tx.RollbackTo(sp)
		}},
	} {
		before := state()
		tx := l.Begin("u")
		if err := tc.script(tx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mustCommit(t, tx)
		if after := state(); after != before {
			t.Errorf("%s: commit moved (block, ordinal, queued, log size) from %v to %v", tc.name, before, after)
		}
	}
	before := state()
	commitOne(t, l, lt, "c")
	if after := state(); after[1] != before[1]+1 || after[2] != before[2]+1 || after[3] <= before[3] {
		t.Fatalf("a commit that wrote moved the state from %v to %v: the test is vacuous", before, after)
	}
}

// TestFinishedTransactionIsDone: every method with an error result of a
// Tx after Commit or Rollback, and of a ReadTx after Close, fails with
// engine.ErrTxDone — Rollback, idempotent, returns nil — and none is left
// holding a snapshot, so version GC reclaims the version a later update
// superseded. The database is one shard, as the subtest's name says.
func TestFinishedTransactionIsDone(t *testing.T) { t.Run("shards=1", finishedTransactionIsDone) }

func finishedTransactionIsDone(t *testing.T) {
	_, priv, _ := ed25519.GenerateKey(nil)
	db, err := Open(Options{Dir: t.TempDir(), Name: "done", LockTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	tx := db.Begin("u")
	if err := tx.Insert(lt, account("a0", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	key := sqltypes.NewNVarChar("a0")
	all := func(sqltypes.Row) bool { return true }
	txCalls := map[string]func(*Tx) error{
		"Insert":      func(tx *Tx) error { return tx.Insert(lt, account("new", 1)) },
		"InsertBatch": func(tx *Tx) error { return tx.InsertBatch(lt, []sqltypes.Row{account("new", 1)}) },
		"Update":      func(tx *Tx) error { return tx.Update(lt, account("a0", 2)) },
		"Delete":      func(tx *Tx) error { return tx.Delete(lt, key) },
		"Get":         func(tx *Tx) error { _, _, err := tx.Get(lt, key); return err },
		"Scan":        func(tx *Tx) error { return tx.Scan(lt, all) },
		"ScanPrefix":  func(tx *Tx) error { return tx.ScanPrefix(lt, all, key) },
		"RollbackTo":  func(tx *Tx) error { return tx.RollbackTo(0) },
		"Commit":      func(tx *Tx) error { return tx.Commit() },
	}
	for _, end := range []string{"Commit", "Rollback"} {
		for name, call := range txCalls {
			tx := db.Begin("u")
			tx.Savepoint()
			if err := tx.Scan(lt, all); err != nil {
				t.Fatal(err)
			}
			if end == "Commit" {
				mustCommit(t, tx)
			} else if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			if err := call(tx); !errors.Is(err, engine.ErrTxDone) {
				t.Errorf("Tx.%s after %s = %v, want engine.ErrTxDone", name, end, err)
			}
			if err := tx.Rollback(); err != nil {
				t.Errorf("Tx.Rollback after %s = %v, want nil", end, err)
			}
		}
	}

	rtCalls := map[string]func(*ReadTx) error{
		"Get":              func(rt *ReadTx) error { _, _, err := rt.Get(lt, key); return err },
		"Scan":             func(rt *ReadTx) error { return rt.Scan(lt, all) },
		"ScanPrefix":       func(rt *ReadTx) error { return rt.ScanPrefix(lt, all, key) },
		"CloseWithReceipt": func(rt *ReadTx) error { _, err := rt.CloseWithReceipt(priv); return err },
	}
	for _, begin := range []func() *ReadTx{db.BeginReadOnly, db.BeginReadOnlyForReceipt} {
		for _, touch := range []bool{false, true} {
			for name, call := range rtCalls {
				rt := begin()
				if touch {
					if err := rt.Scan(lt, all); err != nil {
						t.Fatal(err)
					}
				}
				rt.Close()
				if err := call(rt); !errors.Is(err, engine.ErrTxDone) {
					t.Errorf("ReadTx.%s after Close (touched %v) = %v, want engine.ErrTxDone", name, touch, err)
				}
			}
		}
	}

	// The version this update supersedes is reclaimed by this GCVersions
	// call or by the background sweep before it; either raises the
	// counter, and a snapshot still pinned keeps both from reclaiming it.
	reclaimed := func() int64 { return db.Obs().Snapshot().CounterValue(obs.VersionGCReclaimedTotal) }
	before := reclaimed()
	tx = db.Begin("u")
	if err := tx.Update(lt, account("a0", 3)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	db.edb.GCVersions()
	if reclaimed() == before {
		t.Error("no superseded version reclaimed: a snapshot is still pinned")
	}
}

package core

import (
	"errors"
	"fmt"
	"testing"

	"sqlledger/internal/engine"
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
		l.shards[0].lmu.Lock()
		defer l.shards[0].lmu.Unlock()
		return l.shards[0].edb.LastCommitTS(), len(l.shards[0].queue), l.shards[0].curOrdinal
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

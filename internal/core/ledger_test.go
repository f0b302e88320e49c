package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

func openTestLedger(t *testing.T, blockSize uint32) *DB {
	t.Helper()
	return openLedgerAt(t, t.TempDir(), blockSize)
}

func openLedgerAt(t *testing.T, dir string, blockSize uint32) *DB {
	t.Helper()
	l, err := Open(Options{Dir: dir, Name: "test", BlockSize: blockSize, LockTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func accountsSchema() *sqltypes.Schema {
	return sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("name", sqltypes.TypeNVarChar),
		sqltypes.Col("balance", sqltypes.TypeBigInt),
	}, "name")
}

func mustLedgerTable(t *testing.T, l *DB, name string, kind engine.LedgerKind) *LedgerTable {
	t.Helper()
	lt, err := l.CreateLedgerTable(name, accountsSchema(), kind)
	if err != nil {
		t.Fatalf("create ledger table: %v", err)
	}
	return lt
}

func account(name string, bal int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewNVarChar(name), sqltypes.NewBigInt(bal)}
}

func mustCommit(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func verifyOK(t *testing.T, l *DB, digests []Digest) *Report {
	t.Helper()
	rep, err := l.Verify(digests, VerifyOptions{})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("verification should pass:\n%s", rep)
	}
	return rep
}

func verifyFails(t *testing.T, l *DB, digests []Digest, invariant int) *Report {
	t.Helper()
	rep, err := l.Verify(digests, VerifyOptions{})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.Ok() {
		t.Fatalf("verification should fail (invariant %d):\n%s", invariant, rep)
	}
	if invariant > 0 {
		for _, i := range rep.Issues {
			if i.Invariant == invariant && !i.Warning {
				return rep
			}
		}
		t.Fatalf("no invariant-%d issue reported:\n%s", invariant, rep)
	}
	return rep
}

// TestFigure2Scenario reproduces the paper's Figure 2: inserts, an update
// and a delete on an account-balances table, checking the ledger table,
// history table and ledger view contents.
func TestFigure2Scenario(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)

	tx := l.Begin("u") // Nick $50
	if err := tx.Insert(lt, account("Nick", 50)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx = l.Begin("u") // John $500
	tx.Insert(lt, account("John", 500))
	mustCommit(t, tx)
	tx = l.Begin("u") // Joe $30
	tx.Insert(lt, account("Joe", 30))
	mustCommit(t, tx)
	tx = l.Begin("u") // Mary $200
	tx.Insert(lt, account("Mary", 200))
	mustCommit(t, tx)
	tx = l.Begin("u") // Nick: 50 -> 100 (update = DELETE + INSERT in the view)
	tx.Update(lt, account("Nick", 100))
	mustCommit(t, tx)
	tx = l.Begin("u") // Joe deleted
	tx.Delete(lt, sqltypes.NewNVarChar("Joe"))
	mustCommit(t, tx)

	// Ledger table holds latest data.
	rtx := l.Begin("r")
	var names []string
	rtx.Scan(lt, func(r sqltypes.Row) bool {
		names = append(names, fmt.Sprintf("%s=%d", r[0].Str, r[1].Int()))
		return true
	})
	rtx.Rollback()
	if fmt.Sprint(names) != "[John=500 Mary=200 Nick=100]" {
		t.Fatalf("latest rows = %v", names)
	}

	// History holds the superseded versions: Nick $50 and Joe $30.
	if lt.History().RowCount() != 2 {
		t.Fatalf("history rows = %d", lt.History().RowCount())
	}

	// Ledger view: 4 INSERTs + (DELETE+INSERT for the update) + DELETE.
	view := lt.LedgerView()
	var ops []string
	for _, vr := range view {
		ops = append(ops, fmt.Sprintf("%s/%s/%d", vr.Row[0].Str, vr.Operation, vr.Row[1].Int()))
	}
	want := "[Nick/INSERT/50 John/INSERT/500 Joe/INSERT/30 Mary/INSERT/200 Nick/DELETE/50 Nick/INSERT/100 Joe/DELETE/30]"
	if fmt.Sprint(ops) != want {
		t.Fatalf("ledger view = %v\nwant %v", ops, want)
	}

	// Transaction metadata is retrievable for every view row.
	for _, vr := range view {
		if user, ts, _, ok := l.TransactionInfo(vr.TxID); !ok || user != "u" || ts == 0 {
			t.Fatalf("TransactionInfo(%d) = %q,%d,%v", vr.TxID, user, ts, ok)
		}
	}
	verifyOK(t, l, nil)
}

func TestHiddenColumnsInvisibleButTracked(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	if got := len(lt.VisibleColumns()); got != 2 {
		t.Fatalf("visible columns = %d", got)
	}
	if got := len(lt.Table().Schema().Columns); got != 6 {
		t.Fatalf("physical columns = %d", got)
	}
	tx := l.Begin("alice")
	tx.Insert(lt, account("a", 1))
	txID := tx.ID()
	mustCommit(t, tx)
	var full sqltypes.Row
	lt.Table().Scan(func(_ []byte, r sqltypes.Row) bool { full = r; return false })
	if uint64(full[2].Int()) != txID || full[3].Int() != 1 {
		t.Fatalf("start columns = %v", full[2:])
	}
	if !full[4].Null || !full[5].Null {
		t.Fatalf("end columns should be NULL in the ledger table: %v", full[4:])
	}
}

func TestMultipleUpdatesSameRowInOneTx(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	tx := l.Begin("u")
	tx.Insert(lt, account("a", 1))
	mustCommit(t, tx)

	tx = l.Begin("u")
	if err := tx.Update(lt, account("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(lt, account("a", 3)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(lt, sqltypes.NewNVarChar("a")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if lt.History().RowCount() != 3 {
		t.Fatalf("history rows = %d, want 3 versions", lt.History().RowCount())
	}
	verifyOK(t, l, nil)
}

func TestAppendOnlySemantics(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "audit", engine.LedgerAppendOnly)
	if lt.History() != nil {
		t.Fatal("append-only tables must not have history tables")
	}
	tx := l.Begin("u")
	if err := tx.Insert(lt, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx = l.Begin("u")
	if err := tx.Update(lt, account("a", 2)); !errors.Is(err, ErrAppendOnly) {
		t.Fatalf("update on append-only: %v", err)
	}
	if err := tx.Delete(lt, sqltypes.NewNVarChar("a")); !errors.Is(err, ErrAppendOnly) {
		t.Fatalf("delete on append-only: %v", err)
	}
	tx.Rollback()
	verifyOK(t, l, nil)
}

func TestCreateLedgerTableValidation(t *testing.T) {
	l := openTestLedger(t, 100)
	heapSchema := sqltypes.MustSchema([]sqltypes.Column{sqltypes.Col("v", sqltypes.TypeInt)})
	if _, err := l.CreateLedgerTable("x", heapSchema, engine.LedgerUpdateable); err == nil {
		t.Fatal("updateable ledger table without PK accepted")
	}
	reserved := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("id", sqltypes.TypeInt),
		sqltypes.NullableCol(ColStartTx, sqltypes.TypeBigInt),
	}, "id")
	if _, err := l.CreateLedgerTable("y", reserved, engine.LedgerUpdateable); err == nil {
		t.Fatal("reserved column name accepted")
	}
	if _, err := l.CreateLedgerTable("z", accountsSchema(), engine.LedgerHistory); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if _, err := l.LedgerTable("missing"); err == nil {
		t.Fatal("missing ledger table lookup succeeded")
	}
	// A regular engine table is not a ledger table.
	if _, err := l.Engine().CreateTable(engine.CreateTableSpec{Name: "plain", Schema: accountsSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LedgerTable("plain"); !errors.Is(err, ErrNotLedgerTable) {
		t.Fatalf("plain table treated as ledger table: %v", err)
	}
}

func TestSavepointRollbackKeepsLedgerConsistent(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	tx := l.Begin("u")
	tx.Insert(lt, account("keep", 1))
	sp := tx.Savepoint()
	tx.Insert(lt, account("drop1", 2))
	tx.Update(lt, account("keep", 99))
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	tx.Insert(lt, account("after", 3))
	mustCommit(t, tx)

	// The rolled-back operations must not appear anywhere, and the ledger
	// must verify: the Merkle tree was restored alongside the writes.
	rtx := l.Begin("r")
	var names []string
	rtx.Scan(lt, func(r sqltypes.Row) bool { names = append(names, r[0].Str); return true })
	rtx.Rollback()
	if fmt.Sprint(names) != "[after keep]" {
		t.Fatalf("rows = %v", names)
	}
	if lt.History().RowCount() != 0 {
		t.Fatal("rolled-back update leaked into history")
	}
	verifyOK(t, l, nil)
}

func TestNestedSavepoints(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	tx := l.Begin("u")
	tx.Insert(lt, account("a", 1))
	sp1 := tx.Savepoint()
	tx.Insert(lt, account("b", 2))
	sp2 := tx.Savepoint()
	tx.Insert(lt, account("c", 3))
	if err := tx.RollbackTo(sp2); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo(sp1); err != nil {
		t.Fatal(err)
	}
	// sp2 died with the rollback to sp1.
	if err := tx.RollbackTo(sp2); err == nil {
		t.Fatal("stale savepoint accepted")
	}
	tx.Insert(lt, account("d", 4))
	mustCommit(t, tx)
	verifyOK(t, l, nil)
	rtx := l.Begin("r")
	count := 0
	rtx.Scan(lt, func(sqltypes.Row) bool { count++; return true })
	rtx.Rollback()
	if count != 2 {
		t.Fatalf("rows = %d, want a and d", count)
	}
}

func TestRollbackWholeTxLeavesNoTrace(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	sizeBefore := l.Engine().LogSize()
	tx := l.Begin("u")
	tx.Insert(lt, account("ghost", 1))
	tx.Rollback()
	if l.Engine().LogSize() != sizeBefore {
		t.Fatal("rollback wrote to the WAL")
	}
	if lt.Table().RowCount() != 0 {
		t.Fatal("rollback left rows")
	}
	// The ledger is NOT empty: creating the table registered metadata
	// through the ledger. But the rolled-back tx must not be in it.
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d})
}

func TestEmptyLedgerDigest(t *testing.T) {
	// A database with no ledger activity at all (bootstrap only creates
	// the meta tables, which is not itself ledger-registered) yields
	// ErrEmptyLedger.
	l := openTestLedger(t, 100)
	if _, err := l.GenerateDigest(); !errors.Is(err, ErrEmptyLedger) {
		t.Fatalf("empty ledger digest: %v", err)
	}
}

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

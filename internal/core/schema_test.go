package core

import (
	"fmt"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// TestAddColumnKeepsOldDigestsValid is the heart of §3.5.1: hashes
// recorded before the column existed must still verify afterwards.
func TestAddColumnKeepsOldDigestsValid(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 4)

	if err := l.AddColumn(lt, sqltypes.NullableCol("note", sqltypes.TypeNVarChar)); err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d})

	// New rows can use the column; old digest still verifies alongside a
	// fresh one.
	tx := l.Begin("u")
	if err := tx.Insert(lt, sqltypes.Row{
		sqltypes.NewNVarChar("withnote"), sqltypes.NewBigInt(5), sqltypes.NewNVarChar("hello"),
	}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	d2, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d, d2})

	// Updating an OLD row under the new schema also stays consistent: its
	// history version (written pre-column) must still hash correctly.
	tx = l.Begin("u")
	if err := tx.Update(lt, sqltypes.Row{
		sqltypes.NewNVarChar(acctName(0)), sqltypes.NewBigInt(111), sqltypes.NewNull(sqltypes.TypeNVarChar),
	}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	d3, _ := l.GenerateDigest()
	verifyOK(t, l, []Digest{d, d2, d3})
}

func TestAddColumnValidation(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	if err := l.AddColumn(lt, sqltypes.Col("x", sqltypes.TypeInt)); err == nil {
		t.Fatal("non-nullable added column accepted")
	}
	if err := l.AddColumn(lt, sqltypes.NullableCol(ColEndTx, sqltypes.TypeBigInt)); err == nil {
		t.Fatal("reserved name accepted")
	}
	if err := l.AddColumn(lt, sqltypes.NullableCol("balance", sqltypes.TypeInt)); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestDropColumnRetainsDataAndVerifies(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 3)
	if err := l.DropColumn(lt, "balance"); err != nil {
		t.Fatal(err)
	}
	// Application no longer sees the column...
	if len(lt.VisibleColumns()) != 1 {
		t.Fatalf("visible columns = %v", lt.VisibleColumns())
	}
	// ...but old hashes (which cover the data) still verify.
	verifyOK(t, l, []Digest{d})
	// New inserts work with the narrower visible schema and verify too.
	tx := l.Begin("u")
	if err := tx.Insert(lt, sqltypes.Row{sqltypes.NewNVarChar("slim")}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	d2, _ := l.GenerateDigest()
	verifyOK(t, l, []Digest{d, d2})
}

func TestDropColumnValidation(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	if err := l.DropColumn(lt, "name"); err == nil {
		t.Fatal("dropping a PK column accepted")
	}
	if err := l.DropColumn(lt, ColStartTx); err == nil {
		t.Fatal("dropping a system column accepted")
	}
	if err := l.DropColumn(lt, "ghost"); err == nil {
		t.Fatal("dropping a missing column accepted")
	}
}

func TestAlterColumnType(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 3)
	// BIGINT -> NVARCHAR, converting values to strings.
	err := l.AlterColumnType(lt, "balance", sqltypes.TypeNVarChar, func(v sqltypes.Value) (sqltypes.Value, error) {
		if v.Null {
			return sqltypes.NewNull(sqltypes.TypeNVarChar), nil
		}
		return sqltypes.NewNVarChar(fmt.Sprintf("$%d", v.Int())), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Visible schema: name + balance(NVARCHAR).
	vis := lt.VisibleColumns()
	if len(vis) != 2 || vis[1].Name != "balance" || vis[1].Type != sqltypes.TypeNVarChar {
		t.Fatalf("visible after alter = %+v", vis)
	}
	// Data was converted.
	rtx := l.Begin("r")
	var got []string
	rtx.Scan(lt, func(r sqltypes.Row) bool {
		got = append(got, r[1].Str)
		return true
	})
	rtx.Rollback()
	if len(got) != 3 || got[0][0] != '$' {
		t.Fatalf("converted values = %v", got)
	}
	// The repopulation went through the ledger: old digest + new digest
	// both verify, and the pre-conversion versions are in history.
	if lt.History().RowCount() != 3 {
		t.Fatalf("history rows = %d", lt.History().RowCount())
	}
	d2, _ := l.GenerateDigest()
	verifyOK(t, l, []Digest{d, d2})
}

func TestDropLedgerTableFigure6(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "customers", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 2)
	d, _ := l.GenerateDigest()

	if err := l.DropLedgerTable("customers"); err != nil {
		t.Fatal(err)
	}
	// Gone from the application namespace...
	if _, err := l.LedgerTable("customers"); err == nil {
		t.Fatal("dropped table still reachable by name")
	}
	// ...but physically present and still verified (by id).
	verifyOK(t, l, []Digest{d})

	// A new table can reuse the name (the drop-and-replace scenario).
	lt2, err := l.CreateLedgerTable("customers", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	tx.Insert(lt2, account("fresh", 1))
	mustCommit(t, tx)
	d2, _ := l.GenerateDigest()
	verifyOK(t, l, []Digest{d, d2})

	// Figure 6: the metadata ledger view shows CREATE, DROP, CREATE with
	// distinct table ids, letting users detect the replacement.
	ops, err := l.TableOperations()
	if err != nil {
		t.Fatal(err)
	}
	var créate, drop int
	var ids []uint32
	for _, op := range ops {
		if op.TableName == "customers" {
			ids = append(ids, op.TableID)
			switch op.Operation {
			case "CREATE":
				créate++
			case "DROP":
				drop++
			}
		}
	}
	if créate != 2 || drop != 1 {
		t.Fatalf("table ops: create=%d drop=%d (%+v)", créate, drop, ops)
	}
	if ids[0] == lt2.ID() {
		t.Fatal("old and new table share an id")
	}
	if err := l.DropLedgerTable(sysTableMetaN); err == nil {
		t.Fatal("dropping a system table accepted")
	}
}

func TestDropTableThenTamperOldDataStillDetected(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "secrets", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 3)
	if err := l.DropLedgerTable("secrets"); err != nil {
		t.Fatal(err)
	}
	// Attacker edits the dropped table's data: verification still covers
	// dropped objects (§3.5.2).
	key := firstKeyOf(t, lt.Table())
	l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(31337)
		return r
	}, true)
	verifyFails(t, l, []Digest{d}, 4)
}

func TestSchemaChangesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 2)
	if err := l.AddColumn(lt, sqltypes.NullableCol("extra", sqltypes.TypeInt)); err != nil {
		t.Fatal(err)
	}
	if err := l.DropLedgerTable("accounts"); err != nil {
		t.Fatal(err)
	}
	d, _ := l.GenerateDigest()
	l.Close()

	l2 := openLedgerAt(t, dir, 100)
	if _, err := l2.LedgerTable("accounts"); err == nil {
		t.Fatal("dropped table resurrected by recovery")
	}
	verifyOK(t, l2, []Digest{d})
}

package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// TestGetAllocsMatchRegularTable is the point-read half of "reads pay no
// ledger tax": on the usual dense schema a Get through the ledger layer
// allocates exactly what the engine's Get on a regular table with the
// same user columns allocates — the projection is a subslice.
func TestGetAllocsMatchRegularTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	l := openTestLedger(t, 1000)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	twin, err := l.Engine().CreateTable(engine.CreateTableSpec{Name: "twin", Schema: accountsSchema()})
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	if err := tx.Insert(lt, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Raw().Insert(twin, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	key := sqltypes.NewNVarChar("a")

	tx = l.Begin("r")
	defer tx.Rollback()
	rt := l.BeginReadOnly()
	defer rt.Close()
	for _, c := range []struct {
		name            string
		ledger, regular func() (sqltypes.Row, bool, error)
	}{
		{"Tx.Get",
			func() (sqltypes.Row, bool, error) { return tx.Get(lt, key) },
			func() (sqltypes.Row, bool, error) { return tx.Raw().Get(twin, key) }},
		{"ReadTx.Get",
			func() (sqltypes.Row, bool, error) { return rt.Get(lt, key) },
			func() (sqltypes.Row, bool, error) { return rt.Raw().Get(twin, key) }},
	} {
		row, ok, err := c.ledger()
		if err != nil || !ok || len(row) != 2 || cap(row) != 2 || row[1].Int() != 1 {
			t.Fatalf("%s = %v (cap %d) ok=%v err=%v, want the 2 visible columns with clipped capacity",
				c.name, row, cap(row), ok, err)
		}
		ledger := testing.AllocsPerRun(200, func() { c.ledger() })
		regular := testing.AllocsPerRun(200, func() { c.regular() })
		if ledger > regular {
			t.Errorf("%s: %.0f allocs on the ledger table, %.0f on the regular twin", c.name, ledger, regular)
		}
	}
}

// TestGetProjectsAlteredSchema: once a column is dropped or added the
// visible columns are no longer a prefix of the storage row, and every
// read path falls back to the copying projection — on the handle that
// ran the DDL and on the one rebuilt at reopen.
func TestGetProjectsAlteredSchema(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 1000)
	schema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("name", sqltypes.TypeNVarChar),
		sqltypes.NullableCol("note", sqltypes.TypeNVarChar),
		sqltypes.Col("balance", sqltypes.TypeBigInt),
	}, "name")
	lt, err := l.CreateLedgerTable("accounts", schema, engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	if err := tx.Insert(lt, sqltypes.Row{sqltypes.NewNVarChar("a"), sqltypes.NewNVarChar("vip"), sqltypes.NewBigInt(7)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	check := func(l *LedgerDB, lt *LedgerTable, want string) {
		t.Helper()
		tx := l.Begin("r")
		defer tx.Rollback()
		rt := l.BeginReadOnly()
		defer rt.Close()
		got := map[string]sqltypes.Row{}
		var ok bool
		if got["Tx.Get"], ok, err = tx.Get(lt, sqltypes.NewNVarChar("a")); err != nil || !ok {
			t.Fatalf("Tx.Get: ok=%v err=%v", ok, err)
		}
		if got["ReadTx.Get"], ok, err = rt.Get(lt, sqltypes.NewNVarChar("a")); err != nil || !ok {
			t.Fatalf("ReadTx.Get: ok=%v err=%v", ok, err)
		}
		if err := tx.Scan(lt, func(r sqltypes.Row) bool { got["Tx.Scan"] = r.Clone(); return true }); err != nil {
			t.Fatal(err)
		}
		if err := rt.Scan(lt, func(r sqltypes.Row) bool { got["ReadTx.Scan"] = r.Clone(); return true }); err != nil {
			t.Fatal(err)
		}
		for path, row := range got {
			if s := row.String(); s != want {
				t.Errorf("%s = %s, want %s", path, s, want)
			}
		}
	}
	check(l, lt, sqltypes.Row{sqltypes.NewNVarChar("a"), sqltypes.NewNVarChar("vip"), sqltypes.NewBigInt(7)}.String())

	if err := l.DropColumn(lt, "note"); err != nil {
		t.Fatal(err)
	}
	dropped := sqltypes.Row{sqltypes.NewNVarChar("a"), sqltypes.NewBigInt(7)}.String()
	check(l, lt, dropped)

	if err := l.AddColumn(lt, sqltypes.NullableCol("tier", sqltypes.TypeBigInt)); err != nil {
		t.Fatal(err)
	}
	added := sqltypes.Row{sqltypes.NewNVarChar("a"), sqltypes.NewBigInt(7), sqltypes.NewNull(sqltypes.TypeBigInt)}.String()
	check(l, lt, added)

	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l = openLedgerAt(t, dir, 1000)
	if lt, err = l.LedgerTable("accounts"); err != nil {
		t.Fatal(err)
	}
	check(l, lt, added)
}

// seedGroups commits one transaction per group, each inserting per rows
// keyed "g<group>-<row>", and returns the table.
func seedGroups(t *testing.T, l *LedgerDB, groups, per int) *LedgerTable {
	t.Helper()
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	for g := 0; g < groups; g++ {
		tx := l.Begin("loader")
		for r := 0; r < per; r++ {
			if err := tx.Insert(lt, account(fmt.Sprintf("g%02d-%d", g, r), 0)); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	return lt
}

// TestReadReceiptScansEachTableOnce is the cost model of a receipt: one
// snapshot scan of base + history per table, not one per creating
// transaction. snapshot_reads_total counts every row a snapshot scan
// visits, so a receipt over rows from 12 transactions may raise it by at
// most |base| + |history|.
func TestReadReceiptScansEachTableOnce(t *testing.T) {
	pub, priv := testKeys(t)
	l := openTestLedger(t, 1000)
	const groups, per = 12, 4
	lt := seedGroups(t, l, groups, per)
	// Some history: one more transaction per even group.
	for g := 0; g < groups; g += 2 {
		tx := l.Begin("writer")
		if err := tx.Update(lt, account(fmt.Sprintf("g%02d-0", g), 1)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}

	rt := l.BeginReadOnlyForReceipt()
	if err := rt.Scan(lt, func(sqltypes.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	reads := func() int64 { return l.Obs().Snapshot().CounterValue(obs.SnapshotReadsTotal) }
	before := reads()
	r, err := rt.CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) < 10 {
		t.Fatalf("receipt spans %d creating transactions, want >= 10", len(r.Entries))
	}
	if err := VerifyReadReceipt(r, pub); err != nil {
		t.Fatal(err)
	}
	scanned, bound := reads()-before, int64(lt.Table().RowCount()+lt.History().RowCount())
	if scanned <= 0 || scanned > bound {
		t.Fatalf("receipt over %d transactions read %d snapshot rows, want one scan: (0, %d]",
			len(r.Entries), scanned, bound)
	}
}

// TestReadReceiptUnderConcurrentWriters builds receipts while writers
// keep superseding the very rows being proven. The trees are rebuilt on
// the reader's pinned snapshot, so a row can never be caught in both the
// base and the history scan (or in neither): no receipt build may fail,
// and every receipt must verify. Run under -race.
func TestReadReceiptUnderConcurrentWriters(t *testing.T) {
	pub, priv := testKeys(t)
	l, err := Open(Options{Dir: t.TempDir(), Name: "test", BlockSize: 64, LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const groups, per, writers, receipts = 8, 4, 2, 40
	lt := seedGroups(t, l, groups, per)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// Rows of a group in key order, so writers queue, not deadlock.
				g := (i*writers + w) % groups
				tx := l.Begin("writer")
				for r := 0; r < per; r++ {
					if err := tx.Update(lt, account(fmt.Sprintf("g%02d-%d", g, r), int64(i))); err != nil {
						t.Errorf("writer %d: %v", w, err)
						tx.Rollback()
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("writer %d commit: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < receipts; i++ {
		rt := l.BeginReadOnlyForReceipt()
		n := 0
		if err := rt.Scan(lt, func(sqltypes.Row) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != groups*per {
			t.Fatalf("snapshot scan saw %d rows, want %d", n, groups*per)
		}
		r, err := rt.CloseWithReceipt(priv)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("receipt %d (a torn table reads \"content does not match\"): %v", i, err)
		}
		if err := VerifyReadReceipt(r, pub); err != nil {
			t.Errorf("receipt %d does not verify: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

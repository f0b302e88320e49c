package core

import (
	"fmt"
	"math/rand"
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

// TestReadAllocationBudget is what a read may allocate now that rows are
// stored encoded and decoded at the read boundary: a point read one
// allocation — the row it returns — and a scan a constant per scan, none
// per row, because every row is decoded into the scan's one buffer.
func TestReadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	l := openTestLedger(t, 1000)
	schema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("grp", sqltypes.TypeBigInt),
		sqltypes.Col("id", sqltypes.TypeBigInt),
		sqltypes.Col("name", sqltypes.TypeNVarChar),
	}, "grp", "id")
	lt, err := l.CreateLedgerTable("groups", schema, engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	for grp := int64(0); grp < 2; grp++ {
		for id := int64(0); id < 20*(grp+1); id++ { // 20 rows in group 0, 40 in group 1
			if err := tx.Insert(lt, sqltypes.Row{sqltypes.NewBigInt(grp), sqltypes.NewBigInt(id), sqltypes.NewNVarChar("member")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustCommit(t, tx)

	tx = l.Begin("r")
	defer tx.Rollback()
	rt := l.BeginReadOnly()
	defer rt.Close()
	grp0, grp1, id := sqltypes.NewBigInt(0), sqltypes.NewBigInt(1), sqltypes.NewBigInt(7)
	for name, get := range map[string]func() (sqltypes.Row, bool, error){
		"Tx.Get":     func() (sqltypes.Row, bool, error) { return tx.Get(lt, grp0, id) },
		"ReadTx.Get": func() (sqltypes.Row, bool, error) { return rt.Get(lt, grp0, id) },
	} {
		if n := testing.AllocsPerRun(200, func() { get() }); n > 1 {
			t.Errorf("%s: %.0f allocations, budget 1", name, n)
		}
	}
	rows := 0
	count := func(sqltypes.Row) bool { rows++; return true }
	for name, scan := range map[string]func(grp sqltypes.Value) error{
		"Tx.ScanPrefix":     func(grp sqltypes.Value) error { return tx.ScanPrefix(lt, count, grp) },
		"ReadTx.ScanPrefix": func(grp sqltypes.Value) error { return rt.ScanPrefix(lt, count, grp) },
	} {
		rows = 0
		small := testing.AllocsPerRun(100, func() { scan(grp0) })
		large := testing.AllocsPerRun(100, func() { scan(grp1) })
		if rows != 101*(20+40) {
			t.Fatalf("%s saw %d rows", name, rows)
		}
		if large > small {
			t.Errorf("%s: %.0f allocations for 20 rows, %.0f for 40: a scan allocates per row", name, small, large)
		}
		if small > 4 {
			t.Errorf("%s: %.0f allocations for a 20-row scan, budget 4", name, small)
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

	check := func(l *DB, lt *LedgerTable, want string) {
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
func seedGroups(t *testing.T, l *DB, groups, per int) *LedgerTable {
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

// BenchmarkSnapshotReadTx is the benchmark's snapread read transaction (10
// point Gets and one 20-row ScanPrefix on a snapshot) on a ledger table
// and on its regular twin, with the rows ignored — what bench/ does, and
// the best case for an engine that hands out pointers to rows it keeps —
// and with two columns of every row used, which is when a row's memory is
// touched whoever decoded it. EXPERIMENTS.md "Row storage" quotes it.
func BenchmarkSnapshotReadTx(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir(), Name: "bench", BlockSize: 100000})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	schema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("grp", sqltypes.TypeBigInt), sqltypes.Col("id", sqltypes.TypeBigInt),
		sqltypes.Col("ver", sqltypes.TypeBigInt), sqltypes.Col("payload", sqltypes.TypeVarChar)}, "grp", "id")
	lt, err := l.CreateLedgerTable("snap", schema, engine.LedgerUpdateable)
	if err != nil {
		b.Fatal(err)
	}
	et, err := l.Engine().CreateTable(engine.CreateTableSpec{Name: "twin", Schema: schema})
	if err != nil {
		b.Fatal(err)
	}
	const groups, perGroup = 1000, 20
	payload := sqltypes.NewVarChar(string(make([]byte, 100)))
	for lo := int64(0); lo < groups; lo += 50 {
		tx := l.Begin("load")
		for grp := lo; grp < lo+50; grp++ {
			for id := int64(0); id < perGroup; id++ {
				row := sqltypes.Row{sqltypes.NewBigInt(grp), sqltypes.NewBigInt(id), sqltypes.NewBigInt(0), payload}
				if err := tx.Insert(lt, row); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Raw().Insert(et, row); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	var sum int64
	ignore := func(sqltypes.Row) {}
	use := func(r sqltypes.Row) { sum += r[2].Int() + int64(len(r[3].Str)) }
	for _, c := range []struct {
		name   string
		ledger bool
		row    func(sqltypes.Row)
	}{{"ledger/rows-ignored", true, ignore}, {"regular/rows-ignored", false, ignore},
		{"ledger/rows-used", true, use}, {"regular/rows-used", false, use}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			key := func() (sqltypes.Value, sqltypes.Value) {
				return sqltypes.NewBigInt(rng.Int63n(groups)), sqltypes.NewBigInt(rng.Int63n(perGroup))
			}
			for i := 0; i < b.N; i++ {
				rt := l.BeginReadOnly()
				n := 0
				visit := func(r sqltypes.Row) bool { n++; c.row(r); return true }
				for k := 0; k < 10; k++ {
					grp, id := key()
					var r sqltypes.Row
					var ok bool
					if c.ledger {
						r, ok, _ = rt.Get(lt, grp, id)
					} else {
						r, ok, _ = rt.Raw().Get(et, grp, id)
					}
					if !ok {
						b.Fatal("row missing")
					}
					c.row(r)
				}
				grp, _ := key()
				if c.ledger {
					rt.ScanPrefix(lt, visit, grp)
				} else {
					start, end := engine.PrefixRange(grp)
					rt.Raw().ScanRange(et, start, end, func(_ []byte, r sqltypes.Row) bool { return visit(r) })
				}
				if n != perGroup {
					b.Fatalf("scan saw %d rows", n)
				}
				rt.Close()
			}
		})
	}
	_ = sum
}

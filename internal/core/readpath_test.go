package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the average number of heap
// bytes one call of f allocates.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestGetAllocsMatchRegularTable is "reads pay no ledger tax" in objects
// and in bytes: a Get and a 20-row ScanPrefix through the ledger layer, in
// a transaction and on a snapshot, allocate what the engine's read of a
// regular table with the visible columns allocates — the hidden columns
// are stepped over, not decoded and sliced off — on the usual dense schema
// and after ADD COLUMN + DROP COLUMN, when the visible columns are no
// longer a prefix of the stored row.
func TestGetAllocsMatchRegularTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	l := openTestLedger(t, 1000)
	schema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("grp", sqltypes.TypeBigInt),
		sqltypes.Col("id", sqltypes.TypeBigInt),
		sqltypes.NullableCol("note", sqltypes.TypeNVarChar),
		sqltypes.Col("name", sqltypes.TypeNVarChar),
	}, "grp", "id")
	lt, err := l.CreateLedgerTable("members", schema, engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	// row builds the ledger table's visible row; drop removes "note".
	row := func(id int64, extra ...sqltypes.Value) sqltypes.Row {
		return append(sqltypes.Row{sqltypes.NewBigInt(0), sqltypes.NewBigInt(id),
			sqltypes.NewNVarChar("a note"), sqltypes.NewNVarChar("member")}, extra...)
	}
	drop := func(r sqltypes.Row) sqltypes.Row { return append(r[:2:2], r[3:]...) }
	load := func(twin *engine.Table, visible func(id int64) sqltypes.Row) {
		t.Helper()
		tx := l.Begin("u")
		for id := int64(0); id < 20; id++ {
			if twin == nil {
				err = tx.Insert(lt, visible(id))
			} else {
				_, err = tx.Raw().Insert(twin, visible(id))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	compare := func(shape string, twin *engine.Table, width int) {
		t.Helper()
		tx := l.Begin("r")
		defer tx.Rollback()
		rt := l.BeginReadOnly()
		defer rt.Close()
		grp, id := sqltypes.NewBigInt(0), sqltypes.NewBigInt(7)
		seen := 0
		visit := func(r sqltypes.Row) bool {
			if len(r) != width {
				t.Fatalf("%s: scanned row %v, want %d columns", shape, r, width)
			}
			seen++
			return true
		}
		get := func(r sqltypes.Row, ok bool, err error) {
			if err != nil || !ok || len(r) != width || cap(r) != width || r[width-1].Null && shape == "dense" {
				t.Fatalf("%s: Get = %v (cap %d) ok=%v err=%v, want the %d visible columns", shape, r, cap(r), ok, err, width)
			}
		}
		for _, c := range []struct {
			name            string
			ledger, regular func()
		}{
			{"Tx.Get",
				func() { get(tx.Get(lt, grp, id)) },
				func() { get(tx.Raw().Get(twin, grp, id)) }},
			{"ReadTx.Get",
				func() { get(rt.Get(lt, grp, id)) },
				func() { get(rt.Raw().Get(twin, grp, id)) }},
			{"Tx.ScanPrefix",
				func() { tx.ScanPrefix(lt, visit, grp) },
				func() {
					start, end := engine.PrefixRange(grp)
					tx.Raw().ScanRange(twin, start, end, func(_ []byte, r sqltypes.Row) bool { return visit(r) })
				}},
			{"ReadTx.ScanPrefix",
				func() { rt.ScanPrefix(lt, visit, grp) },
				func() {
					start, end := engine.PrefixRange(grp)
					rt.Raw().ScanRange(twin, start, end, func(_ []byte, r sqltypes.Row) bool { return visit(r) })
				}},
		} {
			seen = 0
			ledger, regular := testing.AllocsPerRun(200, c.ledger), testing.AllocsPerRun(200, c.regular)
			if ledger > regular {
				t.Errorf("%s, %s: %.0f allocs on the ledger table, %.0f on the regular twin", shape, c.name, ledger, regular)
			}
			if c.name[len(c.name)-4:] == "efix" && seen != 2*201*20 {
				t.Fatalf("%s, %s: scans saw %d rows", shape, c.name, seen)
			}
			if lb, rb := bytesPerRun(200, c.ledger), bytesPerRun(200, c.regular); lb > rb {
				t.Errorf("%s, %s: %.0f bytes on the ledger table, %.0f on the regular twin", shape, c.name, lb, rb)
			}
		}
	}

	twin, err := l.Engine().CreateTable(engine.CreateTableSpec{Name: "twin", Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	load(nil, func(id int64) sqltypes.Row { return row(id) })
	load(twin, func(id int64) sqltypes.Row { return row(id) })
	compare("dense", twin, 4)

	// Visible columns 0, 1, 3 and 8 of a nine-column stored row; half the
	// rows rewritten wide, half still as narrow as they were stored.
	if err := l.AddColumn(lt, sqltypes.NullableCol("tier", sqltypes.TypeBigInt)); err != nil {
		t.Fatal(err)
	}
	if err := l.DropColumn(lt, "note"); err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	for id := int64(0); id < 20; id += 2 {
		if err := tx.Update(lt, drop(row(id, sqltypes.NewBigInt(id)))); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	altered := sqltypes.MustSchema([]sqltypes.Column{schema.Columns[0], schema.Columns[1], schema.Columns[3],
		sqltypes.NullableCol("tier", sqltypes.TypeBigInt)}, "grp", "id")
	twin2, err := l.Engine().CreateTable(engine.CreateTableSpec{Name: "twin2", Schema: altered})
	if err != nil {
		t.Fatal(err)
	}
	load(twin2, func(id int64) sqltypes.Row { return drop(row(id, sqltypes.NewBigInt(id))) })
	compare("altered", twin2, 4)
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
// read path decodes the ordinals that are visible now — on the handle that
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

// TestReadReceiptReadsOneFramePerTransaction is the cost model of a
// receipt: no table is scanned — snapshot_reads_total, which counts every
// row a snapshot read visits, does not move while the receipt is built —
// and each creating transaction's WAL frame is read once, however many of
// its rows the read set holds.
func TestReadReceiptReadsOneFramePerTransaction(t *testing.T) {
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
	frameReads := make(map[uint64]int)
	frameReadHook = func(tx uint64) { frameReads[tx]++ }
	defer func() { frameReadHook = nil }()
	reads := func() int64 { return l.Obs().Snapshot().CounterValue(obs.SnapshotReadsTotal) }
	before := reads()
	r, err := rt.CloseWithReceipt(priv)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != groups+groups/2 {
		t.Fatalf("receipt spans %d creating transactions, want %d", len(r.Entries), groups+groups/2)
	}
	if err := VerifyReadReceipt(r, pub); err != nil {
		t.Fatal(err)
	}
	if scanned := reads() - before; scanned != 0 {
		t.Fatalf("receipt read %d snapshot rows, want none", scanned)
	}
	for _, e := range r.Entries {
		if n := frameReads[e.Entry.TxID]; n != 1 {
			t.Errorf("transaction %d: %d frame reads, want 1", e.Entry.TxID, n)
		}
	}
	if len(frameReads) != len(r.Entries) {
		t.Fatalf("frames of %d transactions read for a receipt over %d", len(frameReads), len(r.Entries))
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

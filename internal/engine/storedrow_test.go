package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// TestPruneClearsVacatedSlots: compacting a chain must not leave the
// pruned versions reachable from the tail of the backing array.
func TestPruneClearsVacatedSlots(t *testing.T) {
	c := newChain(1, []byte{1})
	for ts := int64(2); ts <= 7; ts++ {
		c.appendVersion(ts, []byte{byte(ts)})
	}
	dropped, dead := c.prune(5)
	if dropped != 4 || dead || c.newest.ts != 7 || len(c.older) != 2 || c.older[0].ts != 5 || c.older[1].ts != 6 {
		t.Fatalf("prune(5) dropped %d, dead=%v, left %+v then %+v", dropped, dead, c.older, c.newest)
	}
	if cap(c.older) <= len(c.older) {
		t.Fatal("nothing was vacated: the test is vacuous")
	}
	for i, v := range c.older[len(c.older):cap(c.older)] {
		if v.row != nil || v.ts != 0 {
			t.Errorf("slot %d past the kept versions still holds %+v", len(c.older)+i, v)
		}
	}
	if got, ok := c.at(5); !ok || got[0] != 5 {
		t.Errorf("a snapshot at the horizon reads %v, %v", got, ok)
	}
	// Once the newest version is at or below the horizon nothing older is kept.
	if dropped, dead := c.prune(7); dropped != 2 || dead || c.older != nil {
		t.Errorf("prune(7) dropped %d, dead=%v, left %+v", dropped, dead, c.older)
	}
}

// TestScanRowIsCallbackScoped pins the contract every scan shares: the
// row handed to the callback is one buffer, rewritten for the next row, so
// a row kept without Clone changes and a cloned one does not — across
// Table.Scan, Tx.ScanRange (storage rows merged with the transaction's own
// writes), ReadTx.Scan and LookupIndexPrefix.
func TestScanRowIsCallbackScoped(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	ix, err := db.CreateIndex("t", "ix_v", "v")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("u")
	for k := int64(1); k <= 3; k++ {
		if _, err := tx.Insert(tab, kv(k, "same")); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db, tx)
	tx = db.Begin("u")
	defer tx.Rollback()
	if _, err := tx.Insert(tab, kv(0, "same")); err != nil { // own write before the stored rows
		t.Fatal(err)
	}
	if _, err := tx.Insert(tab, kv(4, "same")); err != nil { // and after them
		t.Fatal(err)
	}
	rtx := db.BeginReadOnly()
	defer rtx.Close()

	for name, scan := range map[string]func(fn func([]byte, sqltypes.Row) bool){
		"Table.Scan":  tab.Scan,
		"Tx.Scan":     func(fn func([]byte, sqltypes.Row) bool) { tx.Scan(tab, fn) },
		"ReadTx.Scan": func(fn func([]byte, sqltypes.Row) bool) { rtx.Scan(tab, fn) },
		"LookupIndexPrefix": func(fn func([]byte, sqltypes.Row) bool) {
			tab.LookupIndexPrefix(ix, []sqltypes.Value{sqltypes.NewNVarChar("same")}, fn)
		},
	} {
		var kept, cloned []sqltypes.Row
		scan(func(_ []byte, r sqltypes.Row) bool {
			kept = append(kept, r)
			cloned = append(cloned, r.Clone())
			return true
		})
		if len(cloned) < 3 {
			t.Fatalf("%s delivered %d rows", name, len(cloned))
		}
		for i := 1; i < len(cloned); i++ {
			if cloned[i][0].Int() != cloned[i-1][0].Int()+1 {
				t.Errorf("%s: cloned rows are not consecutive keys: %v", name, cloned)
			}
		}
		if name == "Tx.Scan" && (len(cloned) != 5 || cloned[0][0].Int() != 0 || cloned[4][0].Int() != 4) {
			t.Errorf("Tx.Scan did not merge the transaction's own writes: %v", cloned)
		}
		// Without Clone the first stored row was overwritten by the next one
		// (own writes decode into a second buffer, so compare like with like).
		first := 0
		if name == "Tx.Scan" {
			first = 1
		}
		if kept[first][0].Int() == cloned[first][0].Int() {
			t.Errorf("%s: the scan did not reuse its row buffer; the contract test is vacuous", name)
		}
	}
}

// TestRowsAreEncodedAtTheWriteBoundary is the write-side mirror of the
// scan contract: a row handed to Insert or Update, returned by Get, or
// delivered by a scan can be scribbled on without changing what the
// transaction itself, a later transaction or a reopened database reads.
func TestRowsAreEncodedAtTheWriteBoundary(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	scribble := func(r sqltypes.Row) {
		for i := range r {
			r[i] = sqltypes.NewBigInt(-1)
		}
	}
	want := func(tx *Tx, k int64, v string) {
		t.Helper()
		r, ok, err := tx.Get(tab, sqltypes.NewBigInt(k))
		if err != nil || !ok || r[0].Int() != k || r[1].Str != v {
			t.Fatalf("Get(%d) = %v ok=%v err=%v, want (%d, %s)", k, r, ok, err, k, v)
		}
		scribble(r)
	}

	tx := db.Begin("u")
	ins := kv(1, "one")
	if _, err := tx.Insert(tab, ins); err != nil {
		t.Fatal(err)
	}
	scribble(ins)
	want(tx, 1, "one") // own write, read twice: the first read is scribbled on too
	want(tx, 1, "one")
	upd := kv(1, "uno")
	before, err := tx.Update(tab, upd)
	if err != nil || before[1].Str != "one" {
		t.Fatalf("before-image = %v, %v", before, err)
	}
	scribble(upd)
	scribble(before)
	tx.Scan(tab, func(_ []byte, r sqltypes.Row) bool { scribble(r); return true })
	want(tx, 1, "uno")
	commit(t, db, tx)

	tx = db.Begin("u")
	want(tx, 1, "uno")
	tab.Scan(func(_ []byte, r sqltypes.Row) bool { scribble(r); return true })
	before, err = tx.Update(tab, kv(1, "eins"))
	if err != nil || before[1].Str != "uno" {
		t.Fatalf("before-image = %v, %v", before, err)
	}
	scribble(before)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("u")
	want(tx, 1, "uno")
	want(tx, 1, "uno")
	tx.Rollback()

	db.Close()
	db = openDBAt(t, dir)
	tab, err = db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("u")
	defer tx.Rollback()
	want(tx, 1, "uno")
}

// TestSavepointRollbackRestoresOwnWrites: the overlay is rebuilt from the
// write buffer, whose after-images are the encoded rows.
func TestSavepointRollbackRestoresOwnWrites(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	defer tx.Rollback()
	if _, err := tx.Insert(tab, kv(1, "one")); err != nil {
		t.Fatal(err)
	}
	sp := tx.Savepoint()
	if _, err := tx.Update(tab, kv(1, "uno")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete(tab, sqltypes.NewBigInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	if r, ok, _ := tx.Get(tab, sqltypes.NewBigInt(1)); !ok || r[1].Str != "one" {
		t.Fatalf("after rollback to the savepoint Get = %v, %v", r, ok)
	}
}

// footprintSchema is a 12-column row of the usual mix: a key, numbers, a
// date, and strings.
func footprintSchema() *sqltypes.Schema {
	cols := []sqltypes.Column{sqltypes.Col("id", sqltypes.TypeBigInt)}
	for i := 1; i <= 7; i++ {
		cols = append(cols, sqltypes.Col(fmt.Sprintf("n%d", i), sqltypes.TypeBigInt))
	}
	cols = append(cols,
		sqltypes.Col("at", sqltypes.TypeDateTime),
		sqltypes.Col("s1", sqltypes.TypeNVarChar),
		sqltypes.Col("s2", sqltypes.TypeVarChar),
		sqltypes.NullableCol("s3", sqltypes.TypeVarChar))
	return sqltypes.MustSchema(cols, "id")
}

func footprintRow(id int64) sqltypes.Row {
	r := sqltypes.Row{sqltypes.NewBigInt(id)}
	for i := int64(1); i <= 7; i++ {
		r = append(r, sqltypes.NewBigInt(id*i))
	}
	return append(r,
		sqltypes.Value{Type: sqltypes.TypeDateTime, I64: 1_700_000_000_000_000_000 + id},
		sqltypes.NewNVarChar("ORIGINAL"),
		sqltypes.NewVarChar("twenty-four characters!!"),
		sqltypes.NewNull(sqltypes.TypeVarChar))
}

// TestStoredRowFootprint is the bytes-per-row number of the design: what a
// loaded table keeps per row is its encoded bytes, rounded up to their
// allocation's size class, plus a constant for the key, the version chain
// and the B+tree slot — and no []Value, which alone would be 64 bytes per
// column.
func TestStoredRowFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocations cost")
	}
	const rows = 100_000
	db := openTestDB(t)
	db.stopVersionGC() // nothing else may allocate while the heap is measured
	tab := mustCreate(t, db, "t", footprintSchema())
	encoded := len(EncodeStoredRow(footprintRow(rows / 2)))

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for lo := int64(0); lo < rows; lo += 1000 {
		tx := db.Begin("u")
		for id := lo; id < lo+1000; id++ {
			if _, err := tx.Insert(tab, footprintRow(id)); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, db, tx)
	}
	perRow := float64(heap()-before) / rows
	runtime.KeepAlive(db)

	// Size classes up to 128 bytes are at most 16 apart. The constant is
	// what a row costs beside its bytes: the 9-byte key (16), the chain
	// with its one version inline (64), the leaf's key and value slots
	// (32, at the fill factor of ascending inserts ~2x), plus slack for
	// what the size classes of another Go release round differently.
	const structure = 176
	budget := float64(encoded+16) + structure
	t.Logf("%d rows of %d encoded bytes: %.0f heap bytes per row (budget %.0f; as []Value %d)",
		rows, encoded, perRow, budget, 12*64)
	if perRow > budget {
		t.Errorf("a stored row costs %.0f heap bytes, budget %.0f", perRow, budget)
	}
	if tab.RowCount() != rows {
		t.Fatalf("table holds %d rows", tab.RowCount())
	}
}

// TestScanRangeStoredIsOneSnapshotScan: a stored-bytes scan collects its
// rows in batches, dropping the table lock between them, and still adds up
// to one scan at the snapshot: while a writer inserts, rewrites and deletes
// around the batch boundaries, every scan through one ReadTx returns the
// keys and bytes its first scan did, undecoded bytes decode to what
// ScanRange hands out, and snapshot_reads_total moves by the rows read —
// once per scan, not once per row.
func TestScanRangeStoredIsOneSnapshotScan(t *testing.T) {
	reg := obs.NewRegistry()
	db, err := Open(Options{Dir: t.TempDir(), LockTimeout: 250 * time.Millisecond, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := mustCreate(t, db, "t", kvSchema())
	const rows = 3*storedScanBatch + 17
	tx := db.Begin("u")
	for k := int64(0); k < rows; k++ {
		if _, err := tx.Insert(tab, kv(2*k, "seed")); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db, tx)

	rtx := db.BeginReadOnly()
	defer rtx.Close()
	var want []string
	if err := rtx.Scan(tab, func(k []byte, r sqltypes.Row) bool {
		want = append(want, string(k)+"="+string(EncodeStoredRow(r)))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	reads := func() int64 { return reg.Snapshot().CounterValue(obs.SnapshotReadsTotal) }
	if got := reads(); got != rows {
		t.Fatalf("snapshot_reads_total = %d after a scan of %d rows", got, rows)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 600; i++ {
			at := (i%4)*storedScanBatch + i%7 - 3 // around every batch boundary
			w := db.Begin("w")
			switch i % 3 {
			case 0:
				w.Insert(tab, kv(2*at+1, "new"))
			case 1:
				w.Update(tab, kv(2*max(at, 0), "rewritten"))
			default:
				w.Delete(tab, sqltypes.NewBigInt(2*max(at, 0)))
			}
			db.Commit(w)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		before := reads()
		var got []string
		if err := rtx.ScanRangeStored(tab, nil, nil, func(k, stored []byte) bool {
			got = append(got, string(k)+"="+string(stored))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("a batched scan of the snapshot returned %d rows that differ from the %d of its first scan", len(got), len(want))
		}
		if d := reads() - before; d != rows {
			t.Fatalf("snapshot_reads_total moved by %d over a scan of %d rows", d, rows)
		}
	}
	// A bounded range, stopped early.
	n := tab.ScanRangeStored(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(10)), sqltypes.EncodeKey(nil, sqltypes.NewBigInt(4000)), func(_, _ []byte) bool { return false })
	if n != 1 {
		t.Fatalf("a scan stopped at its first row reports %d rows", n)
	}
}

// TestStoredPrimitives drives the stored-bytes calls the ledger core runs
// on — the []Value calls wrap them — next to their decoding twins: both see
// the same rows, a before-image is the bytes that were stored, projected
// reads return exactly the columns asked for in the order asked, from
// storage and from the transaction's own writes, and a heap insert locks
// nothing.
func TestStoredPrimitives(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	heap := mustCreate(t, db, "h", sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("k", sqltypes.TypeBigInt), sqltypes.Col("v", sqltypes.TypeNVarChar)}))
	tx := db.Begin("u")
	if _, err := tx.Insert(tab, kv(1, "one")); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)

	tx = db.Begin("u")
	key := tab.KeyFor(kv(1, ""))
	stored, ok, err := tx.GetStored(tab, key)
	if err != nil || !ok || string(stored) != string(EncodeStoredRow(kv(1, "one"))) {
		t.Fatalf("GetStored = %x, %v, %v", stored, ok, err)
	}
	two := EncodeStoredRow(kv(1, "two"))
	before, err := tx.UpdateStored(tab, key, two)
	if err != nil || &before[0] != &stored[0] {
		t.Fatalf("UpdateStored's before-image is not the stored version: %x (%v)", before, err)
	}
	// Own write, projected: column 1 then column 0.
	if row, ok, _ := tx.GetByKey(tab, key, []int{1, 0}); !ok || len(row) != 2 || cap(row) != 2 ||
		row[0].Str != "two" || row[1].Int() != 1 {
		t.Fatalf("projected own-write read = %v, %v", row, ok)
	}
	if before, err = tx.DeleteStored(tab, key); err != nil || &before[0] != &two[0] {
		t.Fatalf("DeleteStored's before-image is not the transaction's own write: %x (%v)", before, err)
	}
	if _, err := tx.UpdateStored(tab, key, two); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of a row the transaction deleted: %v", err)
	}
	held := len(tx.locks)
	rid, err := tx.InsertHeap(heap, EncodeStoredRow(kv(7, "heap")))
	if err != nil || len(rid) != 8 || len(tx.locks) != held {
		t.Fatalf("InsertHeap = %x, %v; locks %d -> %d", rid, err, held, len(tx.locks))
	}
	if _, err := tx.InsertHeap(tab, two); err == nil {
		t.Fatal("InsertHeap accepted a keyed table")
	}
	commit(t, db, tx)
	if n := db.locks.entryCount(); n != 0 {
		t.Fatalf("%d lock entries after commit", n)
	}
	if _, ok := tab.Lookup(key); ok {
		t.Fatal("deleted row is still there")
	}

	// Projected scans: storage rows and own writes, same columns.
	tx = db.Begin("u")
	defer tx.Rollback()
	if _, err := tx.Insert(tab, kv(2, "b")); err != nil {
		t.Fatal(err)
	}
	rtx := db.BeginReadOnly()
	defer rtx.Close()
	if row, ok, _ := rtx.GetByKey(heap, rid, []int{1}); !ok || len(row) != 1 || row[0].Str != "heap" {
		t.Fatalf("projected snapshot read of the heap row = %v, %v", row, ok)
	}
	if b, ok, _ := rtx.GetStored(heap, rid); !ok || string(b) != string(EncodeStoredRow(kv(7, "heap"))) {
		t.Fatalf("ReadTx.GetStored = %x, %v", b, ok)
	}
	var got []string
	if err := tx.ScanColumns(tab, []int{1}, nil, nil, func(_ []byte, r sqltypes.Row) bool {
		if len(r) != 1 {
			t.Fatalf("projected scan row %v", r)
		}
		got = append(got, r[0].Str)
		return true
	}); err != nil || !slices.Equal(got, []string{"b"}) {
		t.Fatalf("projected scan = %v (%v)", got, err)
	}
}

// TestLockTableEmptyAfterLedgerShapedTransactions: keyed updates and
// deletes that lock, heap inserts that do not, a savepoint rollback across
// both, and every way a transaction ends — commit, rollback, two-phase
// commit and abort — leave no entry in the lock table.
func TestLockTableEmptyAfterLedgerShapedTransactions(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	hist := mustCreate(t, db, "t_history", sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("k", sqltypes.TypeBigInt), sqltypes.Col("v", sqltypes.TypeNVarChar)}))
	tx := db.Begin("u")
	for k := int64(1); k <= 6; k++ {
		if _, err := tx.Insert(tab, kv(k, "v0")); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db, tx)

	// update is a ledger update at the engine: replace the row, move the
	// before-image to the heap.
	update := func(tx *Tx, k int64, v string) {
		t.Helper()
		before, err := tx.UpdateStored(tab, tab.KeyFor(kv(k, "")), EncodeStoredRow(kv(k, v)))
		if err == nil {
			_, err = tx.InsertHeap(hist, before)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	script := func(tx *Tx) {
		update(tx, 1, "a")
		sp := tx.Savepoint()
		update(tx, 2, "rolled back")
		update(tx, 1, "rolled back")
		if _, err := tx.DeleteStored(tab, tab.KeyFor(kv(3, ""))); err != nil {
			t.Fatal(err)
		}
		if err := tx.RollbackTo(sp); err != nil {
			t.Fatal(err)
		}
		update(tx, 4, "b")
		if db.locks.entryCount() != 4 { // rows 1-4: a savepoint rollback keeps its locks
			t.Fatalf("%d lock entries mid-transaction, want 4", db.locks.entryCount())
		}
	}
	for name, end := range map[string]func(tx *Tx) error{
		"commit":   func(tx *Tx) error { _, err := db.Commit(tx); return err },
		"rollback": func(tx *Tx) error { return tx.Rollback() },
		"2pc commit": func(tx *Tx) error {
			if err := db.Prepare(tx, 77); err != nil {
				return err
			}
			_, err := db.CommitPrepared(tx)
			return err
		},
		"2pc abort": func(tx *Tx) error {
			if err := db.Prepare(tx, 78); err != nil {
				return err
			}
			return db.AbortPrepared(tx)
		},
	} {
		tx := db.Begin("u")
		script(tx)
		if err := end(tx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := db.locks.entryCount(); n != 0 {
			t.Errorf("%s left %d lock entries", name, n)
		}
	}
	if n := hist.RowCount(); n != 4 { // two committing endings, two history rows each
		t.Errorf("history heap holds %d rows, want 4", n)
	}
}

// TestUncontendedLockAllocations: taking a free row lock allocates the one
// string the lock is kept under and never reads the clock (the deadline is
// set on the first conflict, which TestLockConflictTimeout measures from).
func TestUncontendedLockAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	defer tx.Rollback()
	key := tab.KeyFor(kv(1, ""))
	lk := lockKey{table: tab.meta.ID, key: string(key)}
	n := testing.AllocsPerRun(500, func() {
		if err := tx.lock(tab, key); err != nil {
			t.Fatal(err)
		}
		db.locks.release(tx.id, lk.table, lk.key)
		delete(tx.locks, lk)
	})
	if n > 1 {
		t.Errorf("an uncontended Tx.lock allocates %.0f objects, budget 1", n)
	}
}

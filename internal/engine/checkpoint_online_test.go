package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlledger/internal/sqltypes"
)

// TestCheckpointCommitterProgress proves the checkpoint no longer holds
// the quiesce lock across the snapshot write: a transaction committed
// while the write is in flight succeeds immediately, and recovery sees
// both the pre-cut rows (from the snapshot) and the mid-write row (from
// WAL replay past the cut).
func TestCheckpointCommitterProgress(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	for i := int64(0); i < 100; i++ {
		tx := db.Begin("u")
		tx.Insert(tab, kv(i, "pre"))
		commit(t, db, tx)
	}
	committed := make(chan struct{})
	db.snapshotWriteHook = func() {
		// Runs on the checkpoint goroutine after quiesce is released; a
		// deadlock here (commit blocked on quiesce) fails the test by
		// timeout.
		tx := db.Begin("u")
		if _, err := tx.Insert(tab, kv(1000, "during-write")); err != nil {
			t.Errorf("insert during snapshot write: %v", err)
		}
		if _, err := db.Commit(tx); err != nil {
			t.Errorf("commit during snapshot write: %v", err)
		}
		close(committed)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-committed:
	default:
		t.Fatal("snapshot write hook did not run")
	}
	if tab.RowCount() != 101 {
		t.Fatalf("rows after online checkpoint = %d", tab.RowCount())
	}
	db.Close()

	db2 := openDBAt(t, dir)
	tab2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.RowCount() != 101 {
		t.Fatalf("rows after reopen = %d, want 101", tab2.RowCount())
	}
	if _, ok := tab2.Lookup(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(1000))); !ok {
		t.Fatal("mid-write commit lost across restart")
	}
}

// TestCheckpointConcurrentCommitters hammers Checkpoint with parallel
// committers: every commit issued while checkpoints run must survive the
// restart. Run under -race by make test-race.
func TestCheckpointConcurrentCommitters(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	const writers, perWriter = 4, 50
	var wWG, cpWG sync.WaitGroup
	stop := make(chan struct{})
	cpWG.Add(1)
	go func() {
		defer cpWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wWG.Add(1)
		go func(w int) {
			defer wWG.Done()
			for i := 0; i < perWriter; i++ {
				tx := db.Begin("u")
				tx.Insert(tab, kv(int64(w*1000+i), "x"))
				commit(t, db, tx)
			}
		}(w)
	}
	wWG.Wait()
	close(stop)
	cpWG.Wait()
	db.Close()

	db2 := openDBAt(t, dir)
	tab2, _ := db2.Table("t")
	if tab2.RowCount() != writers*perWriter {
		t.Fatalf("rows after reopen = %d, want %d", tab2.RowCount(), writers*perWriter)
	}
}

// TestSnapshotTornTmpFile: a crash mid-checkpoint leaves a torn .tmp file
// behind; recovery must ignore it and load the previous good snapshot.
func TestSnapshotTornTmpFile(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	commit(t, db, tx)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "y"))
	commit(t, db, tx)
	db.Close()

	// A torn tmp from a crashed later checkpoint: garbage content, newest
	// possible LSN in the name.
	torn := filepath.Join(dir, "snap-ffffffffffffffff.snap.tmp")
	if err := os.WriteFile(torn, []byte("partial snapshot garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openDBAt(t, dir)
	tab2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.RowCount() != 2 {
		t.Fatalf("rows after recovery with torn tmp = %d", tab2.RowCount())
	}
}

// TestSnapshotV2SectionCRCFallback: corruption inside a table section
// fails that snapshot's per-section CRC and recovery falls back to the
// previous valid snapshot plus longer WAL replay.
func TestSnapshotV2SectionCRCFallback(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	commit(t, db, tx)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("u")
	tx.Insert(tab, kv(2, "y"))
	commit(t, db, tx)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("u")
	tx.Insert(tab, kv(3, "z"))
	commit(t, db, tx)
	db.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %v", snaps)
	}
	// Glob returns sorted names; LSNs are fixed-width hex, so the last
	// entry is the newest snapshot. Flip its final byte — inside the last
	// table section, past the header the header-CRC covers.
	newest := snaps[len(snaps)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Direct check: the corrupted file must fail with a section CRC error
	// (not a header error), proving the per-section checksums localize it.
	probe := openDBAt(t, t.TempDir())
	if lerr := probe.loadSnapshot(newest, b); lerr == nil || !strings.Contains(lerr.Error(), "section CRC") {
		t.Fatalf("corrupt snapshot load error = %v, want section CRC mismatch", lerr)
	}

	db2 := openDBAt(t, dir)
	tab2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.RowCount() != 3 {
		t.Fatalf("rows after v2 CRC fallback = %d, want 3", tab2.RowCount())
	}
}

// dumpState renders every table's full visible state (rows, order, index
// entries, row counts) so two recoveries can be compared structurally.
func dumpState(t *testing.T, db *DB) string {
	t.Helper()
	var sb strings.Builder
	for _, tab := range db.Tables() {
		fmt.Fprintf(&sb, "table %d %s live=%d versions=%d\n",
			tab.ID(), tab.Name(), tab.RowCount(), tab.VersionCount())
		tab.Scan(func(k []byte, row sqltypes.Row) bool {
			fmt.Fprintf(&sb, "  row %x = %v\n", k, row)
			return true
		})
		for _, ix := range tab.Indexes() {
			fmt.Fprintf(&sb, "  index %s\n", ix.Meta().Name)
			tab.ScanIndex(ix, func(ek, ck []byte) bool {
				fmt.Fprintf(&sb, "    %x -> %x\n", ek, ck)
				return true
			})
		}
	}
	return sb.String()
}

// TestParallelRecoveryMixedWorkload replays the same crash image — DDL
// interleaved with inserts, updates, deletes and tombstone re-inserts —
// serially and with 4 workers, and requires structurally identical state.
func TestParallelRecoveryMixedWorkload(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	for i := int64(0); i < 500; i++ {
		tx := db.Begin("u")
		tx.Insert(tab, kv(i, fmt.Sprintf("v%03d", i)))
		commit(t, db, tx)
	}
	// Index created mid-log, after some DML.
	if _, err := db.CreateIndex("t", "ix_v", "v"); err != nil {
		t.Fatal(err)
	}
	// Updates, deletes and tombstone re-inserts.
	for i := int64(0); i < 200; i++ {
		tx := db.Begin("u")
		if _, err := tx.Update(tab, kv(i, fmt.Sprintf("u%03d", i))); err != nil {
			t.Fatal(err)
		}
		commit(t, db, tx)
	}
	for i := int64(200); i < 300; i++ {
		tx := db.Begin("u")
		if _, err := tx.Delete(tab, sqltypes.NewBigInt(i)); err != nil {
			t.Fatal(err)
		}
		commit(t, db, tx)
	}
	for i := int64(200); i < 250; i++ {
		tx := db.Begin("u")
		tx.Insert(tab, kv(i, "reborn"))
		commit(t, db, tx)
	}
	// Widening ALTER mid-log: earlier rows must end up NULL-widened.
	err := db.AlterTableMeta(tab.ID(), func(m *TableMeta) error {
		m.Schema.Columns = append(m.Schema.Columns, sqltypes.Column{
			Name: "extra", Type: sqltypes.TypeInt, Nullable: true, Ordinal: 2,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Post-ALTER DML writes full-width rows.
	tab3cols, _ := db.Table("t")
	for i := int64(600); i < 650; i++ {
		tx := db.Begin("u")
		row := sqltypes.Row{sqltypes.NewBigInt(i), sqltypes.NewNVarChar("wide"), sqltypes.NewInt(int32(i))}
		if _, err := tx.Insert(tab3cols, row); err != nil {
			t.Fatal(err)
		}
		commit(t, db, tx)
	}
	// A second table so replay exercises cross-table partitioning.
	tab2 := mustCreate(t, db, "t2", kvSchema())
	for i := int64(0); i < 300; i++ {
		tx := db.Begin("u")
		tx.Insert(tab2, kv(i, "other"))
		commit(t, db, tx)
	}
	db.Close() // crash image: full WAL, no snapshot

	open := func(workers int) *DB {
		d, err := Open(Options{Dir: dir, LockTimeout: 250 * time.Millisecond, RecoveryWorkers: workers})
		if err != nil {
			t.Fatalf("open workers=%d: %v", workers, err)
		}
		return d
	}
	serial := open(1)
	want := dumpState(t, serial)
	serial.Close()
	for _, workers := range []int{2, 4, 8} {
		par := open(workers)
		got := dumpState(t, par)
		par.Close()
		if got != want {
			t.Fatalf("workers=%d state differs from serial replay:\n--- serial ---\n%s\n--- parallel ---\n%s", workers, want, got)
		}
	}
}

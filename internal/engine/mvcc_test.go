package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

func getStr(t *testing.T, rtx *ReadTx, tab *Table, k int64) (string, bool) {
	t.Helper()
	row, ok, err := rtx.Get(tab, sqltypes.NewBigInt(k))
	if err != nil {
		t.Fatalf("snapshot get: %v", err)
	}
	if !ok {
		return "", false
	}
	return row[1].Str, true
}

// TestSnapshotReadsArePinned: a read-only transaction keeps seeing the
// committed state as of its begin, across updates and deletes, while
// later snapshots see later versions.
func TestSnapshotReadsArePinned(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())

	tx := db.Begin("u")
	if _, err := tx.Insert(tab, kv(1, "a")); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)

	r1 := db.BeginReadOnly()
	defer r1.Close()

	tx = db.Begin("u")
	if _, err := tx.Update(tab, kv(1, "b")); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)

	r2 := db.BeginReadOnly()
	defer r2.Close()

	tx = db.Begin("u")
	if _, err := tx.Delete(tab, sqltypes.NewBigInt(1)); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)

	r3 := db.BeginReadOnly()
	defer r3.Close()

	if v, ok := getStr(t, r1, tab, 1); !ok || v != "a" {
		t.Fatalf("r1 sees (%q,%v), want (a,true)", v, ok)
	}
	if v, ok := getStr(t, r2, tab, 1); !ok || v != "b" {
		t.Fatalf("r2 sees (%q,%v), want (b,true)", v, ok)
	}
	if _, ok := getStr(t, r3, tab, 1); ok {
		t.Fatal("r3 sees the row after delete")
	}

	// Scans honor the same snapshot: r1 sees one row, r3 none.
	n := 0
	if err := r1.Scan(tab, func(_ []byte, _ sqltypes.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("r1 scan saw %d rows, want 1", n)
	}
	n = 0
	if err := r3.Scan(tab, func(_ []byte, _ sqltypes.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("r3 scan saw %d rows, want 0", n)
	}
}

// TestSnapshotReadTakesNoLocks: a snapshot read of a row whose lock is
// held by an in-flight writer returns the committed version immediately —
// no lock wait, no lock timeout.
func TestSnapshotReadTakesNoLocks(t *testing.T) {
	reg := obs.NewRegistry()
	db, err := Open(Options{Dir: t.TempDir(), LockTimeout: 2 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable(CreateTableSpec{Name: "t", Schema: kvSchema()})
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin("u")
	if _, err := tx.Insert(tab, kv(1, "committed")); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)

	// Writer holds the row lock with an uncommitted update in flight.
	writer := db.Begin("w")
	if _, err := writer.Update(tab, kv(1, "uncommitted")); err != nil {
		t.Fatal(err)
	}
	defer writer.Rollback()

	start := time.Now()
	rtx := db.BeginReadOnly()
	v, ok := getStr(t, rtx, tab, 1)
	rtx.Close()
	if !ok || v != "committed" {
		t.Fatalf("snapshot read got (%q,%v), want (committed,true)", v, ok)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("snapshot read took %v — it blocked on the writer's lock", elapsed)
	}

	snap := reg.Snapshot()
	if h, ok := snap.Histogram(obs.LockWaitSeconds); ok && h.Count != 0 {
		t.Fatalf("snapshot read recorded %d lock waits, want 0", h.Count)
	}
	if n := snap.CounterValue(obs.LockTimeoutTotal); n != 0 {
		t.Fatalf("snapshot read recorded %d lock timeouts, want 0", n)
	}
	if n := snap.CounterValue(obs.SnapshotReadsTotal); n != 1 {
		t.Fatalf("snapshot_reads_total = %d, want 1", n)
	}
}

// TestVersionGCReclaims: superseded versions survive while a snapshot
// pins them and are reclaimed once it closes; a pruned tombstone removes
// the chain entirely.
func TestVersionGCReclaims(t *testing.T) {
	db := openTestDB(t)
	// Halt the background sweeper so reclaim counts are deterministic;
	// only the explicit GCVersions calls below run.
	db.stopVersionGC()
	tab := mustCreate(t, db, "t", kvSchema())

	tx := db.Begin("u")
	if _, err := tx.Insert(tab, kv(1, "v0")); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)

	pin := db.BeginReadOnly()
	for i := 0; i < 5; i++ {
		tx := db.Begin("u")
		if _, err := tx.Update(tab, kv(1, "v")); err != nil {
			t.Fatal(err)
		}
		commit(t, db, tx)
	}
	if n := tab.VersionCount(); n != 6 {
		t.Fatalf("version count = %d, want 6", n)
	}

	// The pinned snapshot holds the horizon at its begin timestamp: the
	// initial version is still reachable, so nothing may be reclaimed.
	if n := db.GCVersions(); n != 0 {
		t.Fatalf("GC reclaimed %d versions under an old snapshot, want 0", n)
	}
	if v, ok := getStr(t, pin, tab, 1); !ok || v != "v0" {
		t.Fatalf("pinned snapshot sees (%q,%v) after GC, want (v0,true)", v, ok)
	}
	pin.Close()

	if n := db.GCVersions(); n != 5 {
		t.Fatalf("GC reclaimed %d versions after unpin, want 5", n)
	}
	if n := tab.VersionCount(); n != 1 {
		t.Fatalf("version count after GC = %d, want 1", n)
	}

	// Delete the row: once the tombstone is the only version at or below
	// the horizon, the whole chain goes away.
	tx = db.Begin("u")
	if _, err := tx.Delete(tab, sqltypes.NewBigInt(1)); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)
	if n := db.GCVersions(); n != 2 {
		t.Fatalf("GC reclaimed %d versions after delete, want 2 (old version + tombstone)", n)
	}
	if n := tab.VersionCount(); n != 0 {
		t.Fatalf("version count after tombstone GC = %d, want 0", n)
	}
	if n := tab.RowCount(); n != 0 {
		t.Fatalf("row count after tombstone GC = %d, want 0", n)
	}
}

// TestConcurrentSnapshotReadsAndWrites races readers, writers and the
// version GC; under -race this audits the MVCC read path for data races,
// and every reader must see a fully consistent version (never a torn or
// uncommitted value).
func TestConcurrentSnapshotReadsAndWrites(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	for k := int64(0); k < 16; k++ {
		if _, err := tx.Insert(tab, kv(k, "init")); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db, tx)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int64((w*8 + i) % 16)
				tx := db.Begin("w")
				if _, err := tx.Update(tab, kv(k, "upd")); err != nil {
					tx.Rollback()
					continue
				}
				_, _ = db.Commit(tx)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rtx := db.BeginReadOnly()
				for k := int64(0); k < 16; k++ {
					row, ok, err := rtx.Get(tab, sqltypes.NewBigInt(k))
					if err != nil || !ok {
						t.Errorf("snapshot get %d: ok=%v err=%v", k, ok, err)
						rtx.Close()
						return
					}
					if v := row[1].Str; v != "init" && v != "upd" {
						t.Errorf("snapshot read saw torn value %q", v)
					}
				}
				rtx.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.GCVersions()
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestSnapshotConsistentCut: regression for snapshots pinned at
// lastCommitTS, which the commit sequencer publishes before the
// durability wait and the apply stage. A snapshot pinned there could
// miss a transaction it is entitled to see and then find it on a
// re-read (non-repeatable), or see a younger transaction while an older
// one is still unapplied. Pinning the applied-through watermark makes
// the cut immutable: every committed transaction here writes the same
// value to both keys, so any snapshot must see them equal and re-reads
// must repeat.
func TestSnapshotConsistentCut(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	for k := int64(0); k < 2; k++ {
		if _, err := tx.Insert(tab, kv(k, "v0")); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db, tx)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := fmt.Sprintf("w%d-%d", w, i)
				tx := db.Begin("w")
				if _, err := tx.Update(tab, kv(0, v)); err != nil {
					tx.Rollback()
					continue
				}
				if _, err := tx.Update(tab, kv(1, v)); err != nil {
					tx.Rollback()
					continue
				}
				_, _ = db.Commit(tx)
			}
		}(w)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		rtx := db.BeginReadOnly()
		v0a, ok0 := getStr(t, rtx, tab, 0)
		v1, ok1 := getStr(t, rtx, tab, 1)
		v0b, _ := getStr(t, rtx, tab, 0)
		rtx.Close()
		if !ok0 || !ok1 {
			t.Fatal("snapshot missed a seeded row")
		}
		if v0a != v1 {
			t.Fatalf("snapshot saw inconsistent cut: key0=%q key1=%q", v0a, v1)
		}
		if v0a != v0b {
			t.Fatalf("non-repeatable read within one snapshot: %q then %q", v0a, v0b)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTamperVersionsLiveGauge: the direct/tamper storage paths adjust the
// sqlledger_versions_live gauge symmetrically, so it tracks the actual
// stored version count through tampering, not just committed DML and GC.
func TestTamperVersionsLiveGauge(t *testing.T) {
	reg := obs.NewRegistry()
	db, err := Open(Options{Dir: t.TempDir(), LockTimeout: 250 * time.Millisecond, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.stopVersionGC()
	tab, err := db.CreateTable(CreateTableSpec{Name: "t", Schema: kvSchema()})
	if err != nil {
		t.Fatal(err)
	}
	gauge := func() float64 {
		v, _ := reg.Snapshot().GaugeValue(obs.VersionsLive)
		return v
	}

	// Committed insert + two updates build a 3-version chain.
	tx := db.Begin("u")
	if _, err := tx.Insert(tab, kv(1, "a")); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)
	for _, v := range []string{"b", "c"} {
		tx := db.Begin("u")
		if _, err := tx.Update(tab, kv(1, v)); err != nil {
			t.Fatal(err)
		}
		commit(t, db, tx)
	}
	if g := gauge(); g != 3 {
		t.Fatalf("versions_live after 3 committed versions = %v, want 3", g)
	}

	if _, err := db.DirectInsert(tab, kv(2, "x")); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 4 {
		t.Fatalf("versions_live after DirectInsert = %v, want 4", g)
	}

	// In-place tamper update rewrites bytes without creating history.
	if err := db.TamperUpdateRow(tab, tab.KeyFor(kv(1, "c")), func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewNVarChar("evil")
		return r
	}, true); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 4 {
		t.Fatalf("versions_live after TamperUpdateRow = %v, want 4", g)
	}

	// Deleting the tampered row drops its whole 3-version chain.
	if err := db.TamperDeleteRow(tab, tab.KeyFor(kv(1, "c")), true); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 1 {
		t.Fatalf("versions_live after TamperDeleteRow = %v, want 1", g)
	}

	// Injecting under a fresh key installs a new single-version chain.
	if _, err := db.TamperInsertRow(tab, kv(3, "y"), true); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 2 {
		t.Fatalf("versions_live after TamperInsertRow = %v, want 2", g)
	}
	total := 0
	for _, tt := range db.Tables() {
		total += tt.VersionCount()
	}
	if g := gauge(); g != float64(total) {
		t.Fatalf("versions_live = %v, stored versions = %d", g, total)
	}
}

// TestLockTimeoutReleaseRace hammers the timeout-vs-release window of
// lockTable.acquire: waiters with tiny timeouts race owners releasing the
// lock at the same instant. The table must end empty (no abandoned
// registrations) and — with the recheck in the timer branch — a waiter
// must not report a spurious timeout for a lock that was already free.
func TestLockTimeoutReleaseRace(t *testing.T) {
	lt := newLockTable(obs.NewRegistry())
	key := []byte("k")
	const owners = 8
	var wg sync.WaitGroup
	for o := uint64(1); o <= owners; o++ {
		wg.Add(1)
		go func(owner uint64) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := lt.acquire(owner, 1, key, time.Millisecond); err == nil {
					lt.release(owner, 1, string(key))
				}
			}
		}(o)
	}
	wg.Wait()
	if n := lt.entryCount(); n != 0 {
		t.Fatalf("lock table has %d leaked entries after all owners finished", n)
	}

	// Deterministic single-waiter variant: the lock is released just as
	// the waiter's timer fires; the waiter must succeed, not time out.
	for i := 0; i < 50; i++ {
		if err := lt.acquire(1, 2, key, time.Second); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			done <- lt.acquire(2, 2, key, 2*time.Millisecond)
		}()
		time.Sleep(2 * time.Millisecond)
		lt.release(1, 2, string(key))
		if err := <-done; err == nil {
			lt.release(2, 2, string(key))
		}
	}
	if n := lt.entryCount(); n != 0 {
		t.Fatalf("lock table has %d leaked entries after timeout race", n)
	}
}

package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// TestCommitStressConcurrent hammers the staged commit pipeline from many
// goroutines: every commit must survive, timestamps must stay strictly
// monotonic, and recovery must replay the full set. Run under -race by
// `make test-race`.
func TestCommitStressConcurrent(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "kv", kvSchema())

	const clients, perClient = 8, 50
	tsCh := make(chan int64, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				key := int64(c*perClient + i)
				tx := db.Begin(fmt.Sprintf("g%d", c))
				if _, err := tx.Insert(tab, sqltypes.Row{sqltypes.NewBigInt(key), sqltypes.NewNVarChar("v0")}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				ts, err := db.Commit(tx)
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				tsCh <- ts
				// Touch the row again so updates flow through the
				// pipeline too.
				tx2 := db.Begin(fmt.Sprintf("g%d", c))
				if _, err := tx2.Update(tab, sqltypes.Row{sqltypes.NewBigInt(key), sqltypes.NewNVarChar("v1")}); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				if _, err := db.Commit(tx2); err != nil {
					t.Errorf("commit update: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(tsCh)

	seen := make(map[int64]bool)
	for ts := range tsCh {
		if seen[ts] {
			t.Fatalf("duplicate commit timestamp %d", ts)
		}
		seen[ts] = true
	}
	if got := tab.RowCount(); got != clients*perClient {
		t.Fatalf("row count = %d, want %d", got, clients*perClient)
	}
	if db.LastCommitTS() == 0 {
		t.Fatal("LastCommitTS not advanced")
	}

	commits, groups := db.Obs().Counter(obs.WALGroupCommits).Value(), db.Obs().Counter(obs.WALGroups).Value()
	if commits != 2*clients*perClient {
		t.Fatalf("group committer saw %d commits, want %d", commits, 2*clients*perClient)
	}
	if groups > commits {
		t.Fatalf("groups (%d) exceed commits (%d)", groups, commits)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash-free reopen: recovery must replay every committed transaction.
	db2 := openDBAt(t, dir)
	tab2, err := db2.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := tab2.RowCount(); got != clients*perClient {
		t.Fatalf("rows after recovery = %d, want %d", got, clients*perClient)
	}
	var bad int
	tab2.Scan(func(_ []byte, r sqltypes.Row) bool {
		if r[1].Str != "v1" {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d rows missing their update after recovery", bad)
	}
}

// TestLoneCommitFlushesOnCallersGoroutine: the commit path starts no
// goroutine — Open's only one is the version-GC sweeper — and a client
// committing alone writes and fsyncs its own frame: one group, one fsync
// per commit, and the goroutine count never rises. (It may fall: an earlier
// test's goroutine can still be on its way out.)
func TestLoneCommitFlushesOnCallersGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	db, err := Open(Options{Dir: t.TempDir(), Sync: wal.SyncFull, LockTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Fatalf("Open started %d goroutines, want 1 (version GC)", got-before)
	}
	tab := mustCreate(t, db, "kv", kvSchema())
	reg := db.Obs()
	fsyncs0 := reg.Counter(obs.WALFsyncTotal).Value()
	const n = 1000
	for i := int64(0); i < n; i++ {
		tx := db.Begin("u")
		if _, err := tx.Insert(tab, kv(i, "v")); err != nil {
			t.Fatal(err)
		}
		commit(t, db, tx)
		if got := runtime.NumGoroutine(); got > before+1 {
			t.Fatalf("commit %d: %d goroutines, want at most %d", i, got, before+1)
		}
	}
	if c, g, f := reg.Counter(obs.WALGroupCommits).Value(), reg.Counter(obs.WALGroups).Value(),
		reg.Counter(obs.WALFsyncTotal).Value()-fsyncs0; c != n || g != n || f != n {
		t.Fatalf("commits/groups/fsyncs = %d/%d/%d, want %d each", c, g, f, n)
	}
	if got := tab.RowCount(); got != n {
		t.Fatalf("row count = %d, want %d", got, n)
	}
}

// TestCommitLogFailureRetiresTimestamps: once the log has failed, every
// commit — the members of the failing group and the ones behind it — gets
// the error, none is applied, and each retires its timestamp, so the
// applied-through watermark moves past them and snapshot readers are not
// held back, nor ever shown the writes.
func TestCommitLogFailureRetiresTimestamps(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "kv", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(0, "durable"))
	commit(t, db, tx)

	db.log.Close() // the log device goes away: every later write fails
	const clients, perClient = 4, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				tx := db.Begin("u")
				if _, err := tx.Insert(tab, kv(int64(1+c*perClient+i), "lost")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := db.Commit(tx); err == nil {
					t.Errorf("commit acknowledged over a failed log")
				}
				tx.Rollback()
			}
		}(c)
	}
	wg.Wait()

	db.inflightMu.Lock()
	inflight := len(db.inflight)
	db.inflightMu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d failed commits still hold their timestamps in flight", inflight)
	}
	if applied, last := db.appliedTS.Load(), db.lastCommitTS.Load(); applied != last {
		t.Fatalf("applied-through watermark %d stuck behind the failed commits (last sequenced %d)", applied, last)
	}
	rtx := db.BeginReadOnly()
	defer rtx.Close()
	rows := 0
	rtx.Scan(tab, func([]byte, sqltypes.Row) bool { rows++; return true })
	if rows != 1 || tab.RowCount() != 1 {
		t.Fatalf("snapshot sees %d rows, table holds %d; want only the durable one", rows, tab.RowCount())
	}
}

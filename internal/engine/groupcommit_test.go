package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

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

	st := db.GroupCommitStats()
	if st.Commits != 2*clients*perClient {
		t.Fatalf("group committer saw %d commits, want %d", st.Commits, 2*clients*perClient)
	}
	if st.Groups > st.Commits {
		t.Fatalf("groups (%d) exceed commits (%d)", st.Groups, st.Commits)
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

// TestCommitSerializedAblation covers the GroupCommit.Disabled path: the
// pre-pipeline serialized commit must still work and report no group
// activity.
func TestCommitSerializedAblation(t *testing.T) {
	db, err := Open(Options{
		Dir:         t.TempDir(),
		LockTimeout: 250 * time.Millisecond,
		GroupCommit: wal.GroupConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab := mustCreate(t, db, "kv", kvSchema())
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tx := db.Begin("u")
				if _, err := tx.Insert(tab, sqltypes.Row{sqltypes.NewBigInt(int64(c*20 + i)), sqltypes.NewNVarChar("v")}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := db.Commit(tx); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := tab.RowCount(); got != 80 {
		t.Fatalf("row count = %d, want 80", got)
	}
	if st := db.GroupCommitStats(); st != (wal.GroupStats{}) {
		t.Fatalf("disabled committer reported activity: %+v", st)
	}
}

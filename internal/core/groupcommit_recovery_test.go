package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// TestGroupCommitCrashRecoveryPrefix simulates a crash in the middle of a
// concurrent group-committed workload by snapshotting the WAL file while
// writers are still running, then recovering from that image. Because the
// WAL is append-only and commit records are written in ledger-ordinal
// order, any byte prefix of it is a valid crash state: every commit that
// made it into the prefix must come back with its ledger entry
// reconstructed on the queue, each client's commits must survive as a
// dense prefix of what it submitted, and verification must pass.
func TestGroupCommitCrashRecoveryPrefix(t *testing.T) {
	dir := t.TempDir()
	l1, err := Open(Options{
		Dir: dir, Name: "crash", BlockSize: 8,
		LockTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	lt, err := l1.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}

	// Ledger entries already queued by bootstrap and CreateLedgerTable;
	// they are durable, so the crash image always recovers them too.
	_, _, baseQ := l1.entries.position()

	const clients, perClient = 4, 60
	var committed atomic.Int64
	snapCh := make(chan []byte, 1)
	go func() {
		// Grab the crash image mid-stream, once enough commits are durable.
		for committed.Load() < 40 {
			time.Sleep(100 * time.Microsecond)
		}
		img, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Errorf("snapshot wal: %v", err)
		}
		snapCh <- img
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				tx := l1.Begin(fmt.Sprintf("g%d", c))
				if err := tx.Insert(lt, account(fmt.Sprintf("g%d-%04d", c, i), int64(i))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				committed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	img := <-snapCh
	if len(img) == 0 {
		t.Fatal("empty WAL snapshot")
	}

	// Rebuild the crash image in a fresh directory: the WAL prefix, whose
	// header carries the incarnation. No snapshot ever existed, so recovery
	// must reconstruct the whole ledger queue from COMMIT records (§3.3.2).
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "wal.log"), img, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir2, Name: "crash", BlockSize: 8, LockTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("recover from crash image: %v", err)
	}
	defer l2.Close()

	lt2, err := l2.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]map[int]bool, clients)
	for c := range seen {
		seen[c] = make(map[int]bool)
	}
	rows := 0
	rtx := l2.Begin("r")
	rtx.Scan(lt2, func(r sqltypes.Row) bool {
		rows++
		var c, i int
		if _, err := fmt.Sscanf(r[0].Str, "g%d-%04d", &c, &i); err != nil {
			t.Errorf("unexpected key %q", r[0].Str)
			return false
		}
		seen[c][i] = true
		return true
	})
	rtx.Rollback()

	// The snapshot was taken after >= 40 commits were durable, so at
	// least that many must survive the crash.
	if rows < 40 {
		t.Fatalf("recovered %d rows, want >= 40", rows)
	}
	// Prefix durability per client: a client's commits are sequential, so
	// the recovered set must be a dense prefix 0..n-1 of what it sent.
	for c := range seen {
		n := len(seen[c])
		for i := 0; i < n; i++ {
			if !seen[c][i] {
				t.Fatalf("client %d: recovered %d commits but commit %d is missing (not a prefix)", c, n, i)
			}
		}
	}

	// Every recovered commit has its ledger entry back on the queue (no
	// checkpoint ran, so none were drained to sys_ledger_transactions).
	_, _, qlen := l2.entries.position()
	if qlen != baseQ+rows {
		t.Fatalf("ledger queue holds %d entries after recovery, want %d (%d bootstrap + %d rows)",
			qlen, baseQ+rows, baseQ, rows)
	}

	d, err := l2.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l2, []Digest{d})
}

// TestConcurrentCommitLedgerDML drives mixed inserts, updates and deletes
// from many goroutines and then checks the ordering invariant the
// recovery protocol depends on: ledger entries appear in the WAL in
// exactly the order their (block, ordinal) positions were assigned, with
// no gaps. Run under -race by `make test-race`.
func TestConcurrentCommitLedgerDML(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 16)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)

	const clients, perClient = 8, 2000
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			user := fmt.Sprintf("g%d", c)
			for i := 0; i < perClient; i++ {
				name := fmt.Sprintf("g%d-%04d", c, i)
				tx := l.Begin(user)
				if err := tx.Insert(lt, account(name, int64(i))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit insert: %v", err)
					return
				}
				switch i % 3 {
				case 0:
					tx = l.Begin(user)
					if err := tx.Update(lt, account(name, int64(i)*10)); err != nil {
						t.Errorf("update: %v", err)
						return
					}
					if err := tx.Commit(); err != nil {
						t.Errorf("commit update: %v", err)
						return
					}
				case 1:
					tx = l.Begin(user)
					if err := tx.Delete(lt, sqltypes.NewNVarChar(name)); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					if err := tx.Commit(); err != nil {
						t.Errorf("commit delete: %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// The i%3==1 rows were deleted.
	wantRows := clients * (perClient - (perClient+1)/3)
	rows := 0
	rtx := l.Begin("r")
	rtx.Scan(lt, func(sqltypes.Row) bool { rows++; return true })
	rtx.Rollback()
	if rows != wantRows {
		t.Fatalf("row count = %d, want %d", rows, wantRows)
	}

	// WAL order must equal ledger ordinal order, densely: each commit
	// entry is either the next ordinal of the same block or ordinal 0 of
	// the next block. Recovery's queue reconstruction assumes this.
	r, err := wal.NewReader(filepath.Join(dir, "wal.log"), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var entries []*wal.LedgerEntry
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("wal read: %v", err)
		}
		if rec.Type != wal.RecCommit {
			continue
		}
		p, err := wal.DecodeCommit(rec.TxID, rec.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if p.Entry != nil {
			entries = append(entries, p.Entry)
		}
	}
	if len(entries) < clients*perClient {
		t.Fatalf("found %d ledger commit records, want >= %d", len(entries), clients*perClient)
	}
	if e := entries[0]; e.BlockID != 0 || e.Ordinal != 0 {
		t.Fatalf("first ledger entry at (%d,%d), want (0,0)", e.BlockID, e.Ordinal)
	}
	for i := 1; i < len(entries); i++ {
		prev, cur := entries[i-1], entries[i]
		sameBlock := cur.BlockID == prev.BlockID && cur.Ordinal == prev.Ordinal+1
		nextBlock := cur.BlockID == prev.BlockID+1 && cur.Ordinal == 0
		if !sameBlock && !nextBlock {
			t.Fatalf("WAL entry %d at (%d,%d) does not follow (%d,%d): order or density violated",
				i, cur.BlockID, cur.Ordinal, prev.BlockID, prev.Ordinal)
		}
	}

	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d})
}

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// openBank opens the database "bank" in dir under a logical clock.
func openBank(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, Name: "bank", LockTimeout: 5 * time.Second, Clock: logicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// loadAccounts inserts n accounts named acct-0000..acct-n in one
// transaction per chunk of 50.
func loadAccounts(t *testing.T, db *DB, lt *LedgerTable, n int) {
	t.Helper()
	for lo := 0; lo < n; lo += 50 {
		tx := db.Begin("loader")
		for i := lo; i < lo+50 && i < n; i++ {
			if err := tx.Insert(lt, account(fmt.Sprintf("acct-%04d", i), int64(100+i))); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
}

func acctNo(i int) sqltypes.Value { return sqltypes.NewNVarChar(fmt.Sprintf("acct-%04d", i)) }

func countRowsOf(t *testing.T, db *DB, lt *LedgerTable) int {
	t.Helper()
	tx := db.Begin("reader")
	defer tx.Rollback()
	n := 0
	if err := tx.Scan(lt, func(sqltypes.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAnyShardCountDML: inserts, updates, deletes and point reads, scans
// and prefix scans, savepoints, and snapshot reads. The database is one
// shard, one chain; the subtest keeps the name the scenario reports under.
func TestAnyShardCountDML(t *testing.T) { t.Run("shards-1", dmlScansAndSnapshotReads) }

func dmlScansAndSnapshotReads(t *testing.T) {
	db := openBank(t, t.TempDir())
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	loadAccounts(t, db, lt, 60)

	tx := db.Begin("teller")
	if err := tx.Update(lt, account("acct-0000", 9_999)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(lt, acctNo(1)); err != nil {
		t.Fatal(err)
	}
	sp := tx.Savepoint()
	for i := 100; i < 110; i++ {
		if err := tx.Insert(lt, account(fmt.Sprintf("acct-%04d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	tx = db.Begin("reader")
	if row, ok, _ := tx.Get(lt, acctNo(0)); !ok || row[1].Int() != 9_999 {
		t.Fatalf("updated row: ok=%v row=%v", ok, row)
	}
	if _, ok, _ := tx.Get(lt, acctNo(1)); ok {
		t.Fatal("deleted row still visible")
	}
	if _, ok, _ := tx.Get(lt, acctNo(105)); ok {
		t.Fatal("row inserted after the savepoint survived RollbackTo")
	}
	one := 0
	if err := tx.ScanPrefix(lt, func(sqltypes.Row) bool { one++; return true }, acctNo(7)); err != nil || one != 1 {
		t.Fatalf("prefix scan saw %d rows (err %v), want 1", one, err)
	}
	tx.Rollback()
	if n := countRowsOf(t, db, lt); n != 59 {
		t.Fatalf("scan saw %d rows, want 59", n)
	}

	rt := db.BeginReadOnly()
	defer rt.Close()
	if row, ok, err := rt.Get(lt, acctNo(42)); err != nil || !ok || row[1].Int() != 142 {
		t.Fatalf("snapshot get: ok=%v row=%v err=%v", ok, row, err)
	}
	n := 0
	if err := rt.Scan(lt, func(sqltypes.Row) bool { n++; return true }); err != nil || n != 59 {
		t.Fatalf("snapshot scan saw %d rows (err %v), want 59", n, err)
	}
	verifyOK(t, db, nil)
}

// TestAnyShardCountDDL: ADD COLUMN, DROP COLUMN, ALTER COLUMN TYPE and
// DROP TABLE, and the database verifies after each; one shard, as above.
func TestAnyShardCountDDL(t *testing.T) { t.Run("shards-1", columnDDLAndTableDrop) }

func columnDDLAndTableDrop(t *testing.T) {
	db := openBank(t, t.TempDir())
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	loadAccounts(t, db, lt, 30)
	if err := db.AddColumn(lt, sqltypes.NullableCol("note", sqltypes.TypeNVarChar)); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("w")
	for i := 30; i < 40; i++ {
		row := append(account(fmt.Sprintf("acct-%04d", i), int64(i)), sqltypes.NewNVarChar("wide"))
		if err := tx.Insert(lt, row); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	if err := db.AlterColumnType(lt, "balance", sqltypes.TypeNVarChar, func(v sqltypes.Value) (sqltypes.Value, error) {
		return sqltypes.NewNVarChar(fmt.Sprint(v.Int())), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.DropColumn(lt, "note"); err != nil {
		t.Fatal(err)
	}
	cols := lt.VisibleColumns()
	if len(cols) != 2 || cols[1].Name != "balance" || cols[1].Type != sqltypes.TypeNVarChar {
		t.Fatalf("columns after DDL: %v", cols)
	}
	tx = db.Begin("r")
	if row, ok, err := tx.Get(lt, acctNo(35)); err != nil || !ok || row[1].Str != "35" {
		t.Fatalf("row after DDL: ok=%v row=%v err=%v", ok, row, err)
	}
	tx.Rollback()
	verifyOK(t, db, nil)

	if err := db.DropLedgerTable("accounts"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LedgerTable("accounts"); err == nil {
		t.Fatal("dropped table still resolves")
	}
	verifyOK(t, db, nil)
}

// TestAnyShardCountAuditAndOps: an audit cycle, /healthz, /debug/ledger
// and /debug/audit, then one tampered row localized by both the auditor and
// Verify; one shard, as above.
func TestAnyShardCountAuditAndOps(t *testing.T) { t.Run("shards-1", auditAndOpsLocalizeTamper) }

func auditAndOpsLocalizeTamper(t *testing.T) {
	db := openBank(t, t.TempDir())
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	loadAccounts(t, db, lt, 90)
	if _, err := db.GenerateDigest(); err != nil { // closes the open block
		t.Fatal(err)
	}
	a := newAuditor(t, db, 1)
	cycleOK(t, a)

	srv := httptest.NewServer(db.OpsHandler())
	defer srv.Close()
	get := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode
	}
	var h Health
	if code := get("/healthz", &h); code != http.StatusOK || h.Audit == nil || !h.Audit.Ok {
		t.Fatalf("/healthz %d: %+v", code, h)
	}
	var d LedgerDebug
	get("/debug/ledger", &d)
	rows := 0
	for _, td := range d.Tables {
		if td.Name == "accounts" {
			rows = td.Rows
		}
	}
	if rows != 90 || d.ChainHeight < 1 {
		t.Fatalf("/debug/ledger: accounts rows %d, chain height %d", rows, d.ChainHeight)
	}

	key := sqltypes.EncodeKey(nil, acctNo(7))
	if err := db.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(1_000_000)
		return r
	}, true); err != nil {
		t.Fatal(err)
	}
	if rep := cycleFinds(t, a); rep.Table != "accounts" {
		t.Fatalf("auditor localized %v, want table accounts", rep)
	}
	var st AuditStatus
	if get("/debug/audit", &st); st.Ok || st.LastReport == nil {
		t.Fatalf("/debug/audit after tampering: %+v", st)
	}
	if code := get("/healthz", &h); code != http.StatusServiceUnavailable || h.Status != HealthUnhealthy {
		t.Fatalf("/healthz after tampering: %d %s", code, h.Status)
	}
	if rep, err := db.Verify(nil, VerifyOptions{}); err != nil || rep.Ok() {
		t.Fatalf("Verify after tampering: ok=%v err=%v", rep.Ok(), err)
	}
}

// TestDatabaseDirectoryLayout: a fresh database directory holds its log
// and nothing else, also after a digest.
func TestDatabaseDirectoryLayout(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Name: "files"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	tx := db.Begin("w")
	if err := tx.Insert(lt, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if _, err := db.GenerateDigest(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"wal.log"}) {
		t.Fatalf("the database directory holds %v, want wal.log alone", names)
	}
}

// TestOpenRefusesMultiShardLayout: a directory holding a multi-shard
// database — a shard-000 subdirectory, or the two-phase commit decision
// log — is refused with an error naming the file, and Open creates and
// writes nothing: opening it as it is would start an empty database beside
// the old data.
func TestOpenRefusesMultiShardLayout(t *testing.T) {
	for _, c := range []struct {
		name string
		make func(dir string) error
	}{
		{"shard-000", func(dir string) error {
			shard := filepath.Join(dir, "shard-000")
			if err := os.Mkdir(shard, 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(shard, "wal.log"), []byte("a shard's log"), 0o644)
		}},
		{"2pc.log", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "2pc.log"), []byte("a decision log"), 0o644)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "bank")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := c.make(dir); err != nil {
				t.Fatal(err)
			}
			before := fileDigests(t, dir)
			db, err := Open(Options{Dir: dir})
			if err == nil {
				db.Close()
				t.Fatal("Open accepted a multi-shard database directory")
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, c.name)) {
				t.Fatalf("Open = %v, want an error naming %s", err, c.name)
			}
			if after := fileDigests(t, dir); !maps.Equal(before, after) {
				t.Fatalf("a refused Open changed the directory:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// fileDigests maps every file and directory under dir to its SHA-256 (a
// directory's: of nothing).
func fileDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		var b []byte
		if !d.IsDir() {
			if b, err = os.ReadFile(path); err != nil {
				return err
			}
		}
		sum := sha256.Sum256(b)
		out[path] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAbortedRowsAreNotIngested: a rolled back batch leaves no row behind.
func TestAbortedRowsAreNotIngested(t *testing.T) {
	db := openBank(t, t.TempDir())
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	batch := make([]sqltypes.Row, 40)
	for i := range batch {
		batch[i] = account(fmt.Sprintf("acct-%04d", i), int64(i))
	}
	tx := db.Begin("loader")
	if err := tx.InsertBatch(lt, batch); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rows := 0
	lt.table.Scan(func([]byte, sqltypes.Row) bool { rows++; return true })
	if rows != 0 {
		t.Fatalf("a rolled back batch left %d rows", rows)
	}
}

// TestTransactionAllocations pins what a transaction allocates (metrics
// disabled so trace sampling cannot move the count): Begin + Get + Commit
// 5, Begin + Insert + Commit 33 (the row's key string and row included).
func TestTransactionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	db, err := Open(Options{Dir: t.TempDir(), Name: "alloc", Obs: obs.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	tx := db.Begin("w")
	if err := tx.Insert(lt, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	key := sqltypes.NewNVarChar("a")
	get := testing.AllocsPerRun(500, func() {
		tx := db.Begin("r")
		tx.Get(lt, key)
		tx.Commit()
	})
	i := 0
	ins := testing.AllocsPerRun(500, func() {
		i++
		tx := db.Begin("w")
		tx.Insert(lt, account(fmt.Sprintf("k%06d", i), 1))
		tx.Commit()
	})
	if get > 5 || ins > 33 {
		t.Fatalf("Begin+Get+Commit allocates %.0f (parent 5), Begin+Insert+Commit %.0f (parent 33)", get, ins)
	}
}

// TestVerifyAllocations: verification works on stored bytes and flat
// slices, so a full Verify — ten blocks, every entry and row version
// re-hashed — allocates per scan task and per block, not per row or per
// transaction. Before the row-version pass ran on stored bytes the same
// run allocated about three objects per row version.
func TestVerifyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	const txs, rowsPerTx = 5000, 2
	db, err := Open(Options{Dir: t.TempDir(), Name: "alloc", BlockSize: txs / 10, Obs: obs.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	for i := 0; i < txs; i++ {
		tx := db.Begin("w")
		for j := 0; j < rowsPerTx; j++ {
			if err := tx.Insert(lt, account(fmt.Sprintf("k%06d-%d", i, j), int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	verify := func() {
		if rep, err := db.Verify(nil, VerifyOptions{Parallelism: 1}); err != nil || !rep.Ok() || rep.RowVersionsChecked < txs*rowsPerTx {
			t.Fatalf("verify: %v\n%v", err, rep)
		}
	}
	verify()
	if perRow := testing.AllocsPerRun(5, verify) / (txs * rowsPerTx); perRow > 0.05 {
		t.Fatalf("Verify allocates %.3f objects per row version, want <= 0.05", perRow)
	} else {
		t.Logf("Verify allocates %.4f objects per row version", perRow)
	}
}

// TestAcknowledgedCommitIsVisible: a commit returns only once every
// snapshot begun after it sees it, also while blocks close beside it — a
// block close is a commit of its own, sequenced among the writers'. Each
// writer opens a snapshot as soon as its Commit returns and must find the
// row it wrote, and a Verify after them all checks every row version.
func TestAcknowledgedCommitIsVisible(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), Name: "ack", BlockSize: 8, Obs: obs.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	before := verifyOK(t, db, nil).RowVersionsChecked // the table's creation wrote some
	stop, swept := make(chan struct{}), make(chan struct{})
	go func() { // a block sweeper that ticks every millisecond
		defer close(swept)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if open, _, _ := db.entries.position(); open > 0 {
					_ = db.closeBlocksThrough(int64(open)-1, false)
				}
			}
		}
	}()
	const writers, perWriter = 4, 250
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("w%d-%04d", w, i)
				tx := db.Begin("w")
				err := tx.Insert(lt, account(name, int64(i)))
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					errs <- err
					return
				}
				rt := db.BeginReadOnly()
				_, ok, err := rt.Get(lt, sqltypes.NewNVarChar(name))
				rt.Close()
				if err != nil || !ok {
					errs <- fmt.Errorf("row %s was committed, and a snapshot begun after misses it (err %v)", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swept
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rep, err := db.Verify(nil, VerifyOptions{})
	if want := before + writers*perWriter; err != nil || !rep.Ok() || rep.RowVersionsChecked != want {
		t.Fatalf("verify checked %d row versions of %d committed: %v\n%v", rep.RowVersionsChecked, want, err, rep)
	}
}

package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// seedAccounts commits n single-insert transactions and returns a digest.
func seedAccounts(t *testing.T, l *DB, lt *LedgerTable, n int) Digest {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := l.Begin("seed")
		if err := tx.Insert(lt, account(acctName(i), int64(i*10))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return d
}

func acctName(i int) string { return "acct-" + string(rune('A'+i%26)) + string(rune('0'+i/26)) }

func firstKeyOf(t *testing.T, tab *engine.Table) []byte {
	t.Helper()
	var key []byte
	tab.Scan(func(k []byte, _ sqltypes.Row) bool {
		key = append([]byte(nil), k...)
		return false
	})
	if key == nil {
		t.Fatal("table is empty")
	}
	return key
}

func TestVerifyCleanMultiBlock(t *testing.T) {
	l := openTestLedger(t, 3) // tiny blocks: force several
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 10)
	rep := verifyOK(t, l, []Digest{d})
	if rep.BlocksChecked < 3 {
		t.Fatalf("blocks checked = %d, want several", rep.BlocksChecked)
	}
	if rep.TransactionsChecked < 10 {
		t.Fatalf("transactions checked = %d", rep.TransactionsChecked)
	}
	_ = lt
}

// --- The tamper matrix through Verify ------------------------------------

// goldenVerifyMatrix holds, per matrix case, the issue list Verify produced
// at the commit before verification moved onto one kernel (PR 13), at
// Parallelism 1 and 4. It is the refactoring contract for Verify: same
// invariants, same tables, same wording, same order.
const goldenVerifyMatrix = "testdata/verify_matrix_golden.json"

// hexRun matches what varies between runs in an issue detail: hashes,
// encoded keys and nanosecond timestamps.
var hexRun = regexp.MustCompile(`[0-9a-f]{16,}`)

// goldenIssues renders a report's (already sorted) issue list for the
// golden file.
func goldenIssues(rep *Report) []string {
	out := make([]string, 0, len(rep.Issues))
	for _, i := range rep.Issues {
		out = append(out, fmt.Sprintf("inv=%d table=%q warning=%v detail=%q",
			i.Invariant, i.Table, i.Warning, hexRun.ReplaceAllString(i.Detail, "HEX")))
	}
	return out
}

// TestVerifyTamperMatrix runs every matrix case through Verify: the
// expected invariants must be flagged (and nothing may fail where none is
// expected), and the issue list must match the checked-in golden at both
// parallelism levels. SQLLEDGER_UPDATE_GOLDEN=1 rewrites the file.
func TestVerifyTamperMatrix(t *testing.T) {
	got := make(map[string]map[string][]string)
	for _, tc := range tamperMatrix {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := newMatrixFixture(t)
			digests := tc.tamper(t, f)
			got[tc.name] = make(map[string][]string)
			for _, par := range []int{1, 4} {
				rep, err := f.l.Verify(digests, VerifyOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Ok() != (len(tc.want) == 0) {
					t.Fatalf("parallelism %d: Ok() = %v, want invariants %v flagged:\n%s", par, rep.Ok(), tc.want, rep)
				}
				for _, inv := range tc.want {
					found := false
					for _, i := range rep.Issues {
						if i.Invariant == inv && !i.Warning {
							found = true
						}
					}
					if !found {
						t.Fatalf("parallelism %d: no invariant-%d issue reported:\n%s", par, inv, rep)
					}
				}
				got[tc.name][fmt.Sprintf("parallelism_%d", par)] = goldenIssues(rep)
			}
			// The golden holds 1 and 4; 2 and 8 must say the same.
			for _, par := range []int{2, 8} {
				rep, err := f.l.Verify(digests, VerifyOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if issues := goldenIssues(rep); !reflect.DeepEqual(issues, got[tc.name]["parallelism_1"]) {
					t.Fatalf("parallelism %d reports %q, parallelism 1 %q", par, issues, got[tc.name]["parallelism_1"])
				}
			}
		})
	}
	if t.Failed() {
		return
	}
	if os.Getenv("SQLLEDGER_UPDATE_GOLDEN") == "1" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenVerifyMatrix, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(goldenVerifyMatrix)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for name := range got {
			if !reflect.DeepEqual(got[name], want[name]) {
				t.Errorf("case %q differs from %s:\n got %q\nwant %q", name, goldenVerifyMatrix, got[name], want[name])
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("golden case %q is no longer in the matrix", name)
			}
		}
	}
}

// --- Scoped verification ---------------------------------------------------

func TestVerifySubsetOfTables(t *testing.T) {
	l := openTestLedger(t, 100)
	a := mustLedgerTable(t, l, "table_a", engine.LedgerUpdateable)
	b, err := l.CreateLedgerTable("table_b", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	tx.Insert(a, account("x", 1))
	tx.Insert(b, account("y", 2))
	mustCommit(t, tx)

	// Tamper with table_b only.
	key := firstKeyOf(t, b.Table())
	l.Engine().TamperUpdateRow(b.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(999)
		return r
	}, true)

	// Scoped to table_a: passes. Scoped to table_b: fails.
	repA, err := l.Verify(nil, VerifyOptions{Tables: []string{"table_a"}})
	if err != nil {
		t.Fatal(err)
	}
	if !repA.Ok() {
		t.Fatalf("table_a verification should pass:\n%s", repA)
	}
	if repA.TablesChecked != 1 {
		t.Fatalf("tables checked = %d", repA.TablesChecked)
	}
	repB, err := l.Verify(nil, VerifyOptions{Tables: []string{"table_b"}})
	if err != nil {
		t.Fatal(err)
	}
	if repB.Ok() {
		t.Fatalf("table_b verification should fail")
	}
}

// --- Digest derivation / fork detection ------------------------------------

func TestDigestDerivation(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d1 := seedAccounts(t, l, lt, 4)
	tx := l.Begin("u")
	tx.Insert(lt, account("late", 1))
	mustCommit(t, tx)
	d2, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d2.BlockID <= d1.BlockID {
		t.Fatalf("expected a later block: %d <= %d", d2.BlockID, d1.BlockID)
	}
	if err := l.VerifyDigestDerivation(d1, d2); err != nil {
		t.Fatalf("derivation should hold: %v", err)
	}
	if err := l.VerifyDigestDerivation(d2, d1); err == nil {
		t.Fatal("reversed derivation accepted")
	}
}

func TestDigestForkDetected(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d1 := seedAccounts(t, l, lt, 4)
	// Fork: overwrite an old block (rewriting history), then extend.
	key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(d1.BlockID)))
	err := l.Engine().TamperUpdateRow(l.shards[0].sysBlocks, key, func(r sqltypes.Row) sqltypes.Row {
		b := append([]byte(nil), r[2].Bytes...)
		b[5] ^= 0x01
		r[2] = sqltypes.NewBinary(b)
		return r
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	tx.Insert(lt, account("fork", 1))
	mustCommit(t, tx)
	d2, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.VerifyDigestDerivation(d1, d2); err == nil {
		t.Fatal("fork not detected by digest derivation check")
	}
}

// --- Sharded / parallel verification ---------------------------------------

// issueStrings renders the (already sorted) issue list for comparison.
func issueStrings(rep *Report) string {
	var b strings.Builder
	for _, i := range rep.Issues {
		b.WriteString(i.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestVerifyParallelMatchesSerial tampers with a database several ways at
// once and checks that Parallelism: 1 and Parallelism: 8 produce
// byte-identical sorted issue lists and identical counters — the sharded
// pipeline must detect exactly what the serial path detects.
func TestVerifyParallelMatchesSerial(t *testing.T) {
	l := openTestLedger(t, 10)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	if _, err := l.Engine().CreateIndex("accounts", "ix_balance", "balance"); err != nil {
		t.Fatal(err)
	}
	d := seedAccounts(t, l, lt, 200)
	for i := 0; i < 40; i++ { // populate the history table
		tx := l.Begin("u")
		tx.Update(lt, account(acctName(i), int64(1000+i)))
		mustCommit(t, tx)
	}
	l.Checkpoint()

	// Tamper 1: rewrite a base row (inv 4; index kept consistent).
	key := firstKeyOf(t, lt.Table())
	if err := l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(1_000_000)
		return r
	}, true); err != nil {
		t.Fatal(err)
	}
	// Tamper 2: rewrite a history row (inv 4).
	hkey := firstKeyOf(t, lt.History())
	if err := l.Engine().TamperUpdateRow(lt.History(), hkey, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(42)
		return r
	}, true); err != nil {
		t.Fatal(err)
	}
	// Tamper 3: corrupt a nonclustered index entry (inv 5).
	ix := lt.Table().Indexes()[0]
	var entryKey []byte
	lt.Table().ScanIndex(ix, func(ek, _ []byte) bool {
		entryKey = append([]byte(nil), ek...)
		return false
	})
	if err := l.Engine().TamperIndexEntry(lt.Table(), ix, entryKey, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	// Tamper 4: delete a transaction entry (inv 3 + orphaned rows inv 4).
	tkey := firstKeyOf(t, l.shards[0].sysTx)
	if err := l.Engine().TamperDeleteRow(l.shards[0].sysTx, tkey, true); err != nil {
		t.Fatal(err)
	}

	serial, err := l.Verify([]Digest{d}, VerifyOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := l.Verify([]Digest{d}, VerifyOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Ok() || parallel.Ok() {
		t.Fatal("tampered database verified clean")
	}
	if got, want := issueStrings(parallel), issueStrings(serial); got != want {
		t.Fatalf("issue lists differ between parallelism levels:\nserial:\n%sparallel:\n%s", want, got)
	}
	if serial.RowVersionsChecked != parallel.RowVersionsChecked ||
		serial.IndexesChecked != parallel.IndexesChecked ||
		serial.TablesChecked != parallel.TablesChecked {
		t.Fatalf("counters differ: serial=%+v parallel=%+v", serial, parallel)
	}
	if serial.RowVersionsChecked < 240 {
		t.Fatalf("row versions checked = %d, want >= 240", serial.RowVersionsChecked)
	}
}

// TestVerifyParallelCleanLargeTable checks the single-large-table shape the
// sharded pipeline exists for: one table big enough for many shards, clean,
// verified at high parallelism.
func TestVerifyParallelCleanLargeTable(t *testing.T) {
	l := openTestLedger(t, 25)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 250)
	rep, err := l.Verify([]Digest{d}, VerifyOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("clean database failed parallel verification:\n%s", rep)
	}
	if rep.RowVersionsChecked < 250 {
		t.Fatalf("row versions checked = %d", rep.RowVersionsChecked)
	}
}

// TestVerifyEmptyTableParallel covers the empty-table / empty-shard edges.
func TestVerifyEmptyTableParallel(t *testing.T) {
	l := openTestLedger(t, 100)
	mustLedgerTable(t, l, "empty_tbl", engine.LedgerUpdateable)
	rep, err := l.Verify(nil, VerifyOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("empty table failed verification:\n%s", rep)
	}
}

// TestInvariant5HistoryIndexTamperParallel: the single-pass index check
// still catches a corrupted nonclustered index on the *history* table.
func TestInvariant5HistoryIndexTamperParallel(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 30)
	for i := 0; i < 30; i++ {
		tx := l.Begin("u")
		tx.Update(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	ix, err := l.Engine().CreateIndex(lt.History().Name(), "ix_hist_balance", "balance")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.Verify(nil, VerifyOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("pre-tamper verification failed:\n%s", rep)
	}
	var entryKey []byte
	lt.History().ScanIndex(ix, func(ek, _ []byte) bool {
		entryKey = append([]byte(nil), ek...)
		return false
	})
	if err := l.Engine().TamperIndexEntry(lt.History(), ix, entryKey, []byte{0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	rep, err = l.Verify(nil, VerifyOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range rep.Issues {
		if i.Invariant == 5 && strings.Contains(i.Detail, "ix_hist_balance") {
			found = true
		}
	}
	if !found {
		t.Fatalf("history index corruption not detected:\n%s", rep)
	}
}

// TestVerifyReportsTiming: the Report carries phase timings (observability
// for perf work) and prints them.
func TestVerifyReportsTiming(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 20)
	rep := verifyOK(t, l, []Digest{d})
	if rep.Timing.Total <= 0 {
		t.Fatalf("timing total = %v, want > 0", rep.Timing.Total)
	}
	if rep.Timing.Total < rep.Timing.Chain {
		t.Fatalf("total %v < chain phase %v", rep.Timing.Total, rep.Timing.Chain)
	}
	if !strings.Contains(rep.String(), "timing:") {
		t.Fatalf("report does not print timing:\n%s", rep)
	}
}

// TestVerifyRowVersionsUnderLiveWriters: invariant 4 reads base and
// history at one pinned snapshot — in batches that release the table lock
// and resume by key, three per scan of this table — so a Verify racing
// committers that insert, update and delete all over the key space, batch
// boundaries included, must never report a row-version issue. (The chain
// and index checks read live state; their documented caveat — run them
// quiescent — still holds.)
func TestVerifyRowVersionsUnderLiveWriters(t *testing.T) {
	const seeded, writerTxs = 2500, 300
	for seed := int64(1); seed <= 5; seed++ {
		l := openTestLedger(t, 50)
		lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
		name := func(i int) string { return fmt.Sprintf("acct-%05d", i) }
		tx := l.Begin("seed")
		for i := 0; i < seeded; i++ {
			if err := tx.Insert(lt, account(name(2*i), int64(i))); err != nil { // even names: odd ones are the writer's
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)

		done := make(chan struct{})
		go func() {
			defer close(done)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < writerTxs; i++ {
				tx := l.Begin("writer")
				at := rng.Intn(seeded)
				switch i % 3 {
				case 0:
					_ = tx.Update(lt, account(name(2*at), int64(-i)))
				case 1:
					_ = tx.Insert(lt, account(name(2*at+1), int64(i)))
				default:
					_ = tx.Delete(lt, sqltypes.NewNVarChar(name(2*at)))
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			rep, err := l.Verify(nil, VerifyOptions{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range rep.Issues {
				if i.Invariant == 4 {
					<-done
					t.Fatalf("seed %d: false row-version issue under live writers: %s", seed, i)
				}
			}
		}
		verifyOK(t, l, nil)
	}
}

// TestVerifyDoesNotBlockCommits: a verification scan holds no table lock
// while it hashes, so with a scan task parked in its hashing stage a
// commit that updates the scanned table, and a read of it, complete.
func TestVerifyDoesNotBlockCommits(t *testing.T) {
	l := openTestLedger(t, 5)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 10)

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	rowHashingHook = func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	unpark := sync.OnceFunc(func() { close(release) }) // on failure too, or Close waits for the scan
	defer func() { unpark(); rowHashingHook = nil }()
	verified := make(chan *Report, 1)
	go func() {
		rep, _ := l.Verify(nil, VerifyOptions{Parallelism: 1, Tables: []string{"accounts"}})
		verified <- rep
	}()
	<-parked

	wrote := make(chan error, 1)
	go func() {
		tx := l.Begin("writer")
		if err := tx.Update(lt, account(acctName(3), 12345)); err != nil {
			wrote <- err
			return
		}
		if err := tx.Commit(); err != nil {
			wrote <- err
			return
		}
		tx = l.Begin("reader")
		defer tx.Rollback()
		row, ok, err := tx.Get(lt, sqltypes.NewNVarChar(acctName(3)))
		if err == nil && (!ok || row[1].Int() != 12345) {
			err = fmt.Errorf("read back %v, %v", row, ok)
		}
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a commit and a read of the table stalled behind a verification scan that is hashing")
	}
	unpark()
	if rep := <-verified; rep == nil || !rep.Ok() {
		t.Fatalf("verification around the commit:\n%v", rep)
	}
}

package core

import (
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sqlledger/internal/blobstore"
	"sqlledger/internal/engine"
	"sqlledger/internal/merkle"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// shardCounts are the shard counts every scenario that is a route or a
// fan-out runs at, through the one Open.
var shardCounts = []int{1, 3}

func forShardCounts(t *testing.T, run func(t *testing.T, db *DB)) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			db := openShards(t, t.TempDir(), n)
			defer db.Close()
			run(t, db)
		})
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

// TestAnyShardCountDML: routed inserts, updates, deletes and point reads,
// scans and prefix scans, savepoints, and snapshot reads.
func TestAnyShardCountDML(t *testing.T) {
	forShardCounts(t, func(t *testing.T, db *DB) {
		lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
		loadAccounts(t, db, lt, 60)

		tx := db.Begin("teller")
		if err := tx.Update(lt, acct("acct-0000", 9_999)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(lt, acctNo(1)); err != nil {
			t.Fatal(err)
		}
		sp := tx.Savepoint()
		for i := 100; i < 110; i++ { // lands on every shard
			if err := tx.Insert(lt, acct(fmt.Sprintf("acct-%04d", i), 1)); err != nil {
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
	})
}

// TestAnyShardCountDDL: ADD COLUMN, DROP COLUMN, ALTER COLUMN TYPE and
// DROP TABLE reach every shard, and the database verifies after each.
func TestAnyShardCountDDL(t *testing.T) {
	forShardCounts(t, func(t *testing.T, db *DB) {
		lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
		loadAccounts(t, db, lt, 30)
		if err := db.AddColumn(lt, sqltypes.NullableCol("note", sqltypes.TypeNVarChar)); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin("w")
		for i := 30; i < 40; i++ {
			row := append(acct(fmt.Sprintf("acct-%04d", i), int64(i)), sqltypes.NewNVarChar("wide"))
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
		if n := len(db.LedgerTables()); n != len(db.Shard(0).LedgerTables()) {
			t.Fatalf("LedgerTables lists %d tables, shard 0 has %d", n, len(db.Shard(0).LedgerTables()))
		}
		verifyOK(t, db, nil)
	})
}

// TestAnyShardCountAuditAndOps: an audit cycle, /healthz, /debug/ledger and
// /debug/audit, then one tampered row localized by both the auditor and
// Verify — to its shard when there are several.
func TestAnyShardCountAuditAndOps(t *testing.T) {
	forShardCounts(t, func(t *testing.T, db *DB) {
		multi := db.NumShards() > 1
		lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
		loadAccounts(t, db, lt, 90)
		sb, err := db.CloseSuperBlock()
		if err != nil {
			t.Fatal(err)
		}
		a := newAuditor(t, db, 1)
		if st := cycleOK(t, a); (len(st.Shards) > 0) != multi {
			t.Fatalf("audit status has %d shard entries at %d shards", len(st.Shards), db.NumShards())
		}

		srv := httptest.NewServer(db.OpsHandler(nil))
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
		if code := get("/healthz", &h); code != http.StatusOK || h.Audit == nil || !h.Audit.Ok ||
			h.SuperBlock == nil || h.SuperBlock.SeqNo != sb.SeqNo || (len(h.Shards) > 0) != multi {
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
		if rows != 90 || d.ChainHeight < int64(db.NumShards()) || (len(d.Shards) > 0) != multi {
			t.Fatalf("/debug/ledger: accounts rows %d, chain height %d, %d shard entries", rows, d.ChainHeight, len(d.Shards))
		}

		// Tamper one row through its shard's engine.
		victim := db.NumShards() - 1
		name := ""
		for i := 0; name == ""; i++ {
			if lt.ShardOf(acctNo(i)) == victim {
				name = fmt.Sprintf("acct-%04d", i)
			}
		}
		part, err := db.Shard(victim).LedgerTable("accounts")
		if err != nil {
			t.Fatal(err)
		}
		key := sqltypes.EncodeKey(nil, sqltypes.NewNVarChar(name))
		if err := db.Shard(victim).Engine().TamperUpdateRow(part.Table(), key, func(r sqltypes.Row) sqltypes.Row {
			r[1] = sqltypes.NewBigInt(1_000_000)
			return r
		}, true); err != nil {
			t.Fatal(err)
		}
		wantShard := -1
		if multi {
			wantShard = victim
		}
		if rep := cycleFinds(t, a); rep.Shard != wantShard || rep.Table != "accounts" {
			t.Fatalf("auditor localized %v, want shard %d table accounts", rep, wantShard)
		}
		var st AuditStatus
		if get("/debug/audit", &st); st.Ok || st.LastReport == nil {
			t.Fatalf("/debug/audit after tampering: %+v", st)
		}
		if code := get("/healthz", &h); code != http.StatusServiceUnavailable || h.Status != HealthUnhealthy {
			t.Fatalf("/healthz after tampering: %d %s", code, h.Status)
		}
		rep, err := db.Verify(nil, VerifyOptions{})
		if err != nil || rep.Ok() {
			t.Fatalf("Verify after tampering: ok=%v err=%v", rep.Ok(), err)
		}
		for _, sr := range rep.Shards {
			if sr.Report.Ok() != (sr.Shard != victim) {
				t.Fatalf("shard %d ok=%v, want failure only on shard %d", sr.Shard, sr.Report.Ok(), victim)
			}
		}
	})
}

// mustFailMultiShard runs op and requires that it fail with ErrMultiShard
// — as its error, or as the value it panics with.
func mustFailMultiShard(t *testing.T, name string, op func() error) {
	t.Helper()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				e, ok := r.(error)
				if !ok {
					panic(r)
				}
				err = e
			}
		}()
		return op()
	}()
	if !errors.Is(err, ErrMultiShard) {
		t.Errorf("%s on 3 shards = %v, want ErrMultiShard", name, err)
	} else if !strings.Contains(err.Error(), "db.Shard(i)") {
		t.Errorf("%s: %q does not point at db.Shard(i)", name, err)
	}
}

// TestErrMultiShard enumerates every operation that names one chain's
// artifact: on a 3-shard database each fails with the typed error and
// leaves shard 0 — the silent default it must never be — untouched.
func TestErrMultiShard(t *testing.T) {
	db := openShards(t, t.TempDir(), 3)
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	loadAccounts(t, db, lt, 30)
	before := db.Shard(0).DebugInfo()
	beforeDir, _ := filepath.Glob(filepath.Join(db.opts.Dir, "*"))

	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	store := blobstore.NewMemory()
	tx := db.Begin("r")
	defer tx.Rollback()
	rt := db.BeginReadOnlyForReceipt()
	defer rt.Close()
	none := func(f func()) func() error { return func() error { f(); return nil } }
	for name, op := range map[string]func() error{
		"Single":                  func() error { _, err := db.Single(); return err },
		"Engine":                  none(func() { db.Engine() }),
		"Incarnation":             none(func() { db.Incarnation() }),
		"TransactionInfo":         none(func() { db.TransactionInfo(1) }),
		"TableOperations":         none(func() { db.TableOperations() }),
		"GenerateDigest":          func() error { _, err := db.GenerateDigest(); return err },
		"VerifyDigestDerivation":  func() error { return db.VerifyDigestDerivation(Digest{}, Digest{}) },
		"UploadDigest":            func() error { _, err := db.UploadDigest(store); return err },
		"StoredDigests":           func() error { _, err := db.StoredDigests(store); return err },
		"VerifyFromStore":         func() error { _, err := db.VerifyFromStore(store, VerifyOptions{}); return err },
		"GenerateReceipt":         func() error { _, err := db.GenerateReceipt(1, priv); return err },
		"TruncateLedger":          func() error { return db.TruncateLedger(0) },
		"RepairFromBackup":        func() error { _, err := RepairFromBackup(db, db, nil, true); return err },
		"DigestUploader":          func() error { _, err := NewDigestUploader(db, store).UploadOnce(); return err },
		"Tx.ID":                   none(func() { tx.ID() }),
		"Tx.Raw":                  none(func() { tx.Raw() }),
		"ReadTx.Raw":              none(func() { rt.Raw() }),
		"ReadTx.SnapshotTS":       none(func() { rt.SnapshotTS() }),
		"ReadTx.CloseWithReceipt": func() error { _, err := rt.CloseWithReceipt(priv); return err },
		"LedgerTable.ID":          none(func() { lt.ID() }),
		"LedgerTable.Table":       none(func() { lt.Table() }),
		"LedgerTable.History":     none(func() { lt.History() }),
	} {
		mustFailMultiShard(t, name, op)
	}
	// The same questions have answers on a shard.
	if part, err := db.Shard(0).LedgerTable("accounts"); err != nil || part.Table() == nil || part.History() == nil {
		t.Fatalf("shard 0's part of accounts: %v", err)
	}

	after := db.Shard(0).DebugInfo()
	before.Tables, after.Tables = nil, nil
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("a per-chain operation moved shard 0: %+v -> %+v", before, after)
	}
	if afterDir, _ := filepath.Glob(filepath.Join(db.opts.Dir, "*")); !slices.Equal(beforeDir, afterDir) {
		t.Fatalf("a per-chain operation wrote to the database directory: %v -> %v", beforeDir, afterDir)
	}
	if names, _ := store.List(""); len(names) != 0 {
		t.Fatalf("blobs uploaded: %v", names)
	}
}

// TestOneShardLayout: a fresh one-shard database directory holds exactly
// the files the parent commit's Open created — the super-block key appears
// with the first super-block, not at open.
func TestOneShardLayout(t *testing.T) {
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
	list := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	if got := list(); !slices.Equal(got, []string{"createtime", "wal.log"}) {
		t.Fatalf("one-shard directory holds %v, want createtime and wal.log", got)
	}
	sb, err := db.CloseSuperBlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSuperBlock(sb, db.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if got := list(); !slices.Equal(got, []string{"createtime", superBlockFile, superKeyFile, "wal.log"}) {
		t.Fatalf("after a super-block the directory holds %v", got)
	}
}

// TestHostileSuperBlockWatermark: superblock.json is read back at open, so
// whatever it holds, Open must answer with an error — never a panic, never
// a database that trusts it.
func TestHostileSuperBlockWatermark(t *testing.T) {
	dir := t.TempDir()
	db := openShards(t, dir, 2)
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	loadAccounts(t, db, lt, 20)
	if _, err := db.CloseSuperBlock(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, superBlockFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(sb *SuperBlock)) []byte {
		sb, err := ParseSuperBlock(good)
		if err != nil {
			t.Fatal(err)
		}
		f(sb)
		return sb.JSON()
	}
	for name, doc := range map[string][]byte{
		"bad shard index":   []byte(strings.Replace(string(good), `"shard":1`, `"shard":99`, 1)),
		"negative index":    edit(func(sb *SuperBlock) { sb.Heads[1].Shard = -1 }),
		"heads != shards":   edit(func(sb *SuperBlock) { sb.Heads = sb.Heads[:1] }),
		"extra head":        edit(func(sb *SuperBlock) { sb.Heads = append(sb.Heads, sb.Heads[1]); sb.Shards = 3 }),
		"bad signature":     edit(func(sb *SuperBlock) { sb.Signature[0] ^= 1 }),
		"foreign key":       edit(func(sb *SuperBlock) { sb.PublicKey[0] ^= 1; sb.GeneratedAt++ }),
		"rewritten head":    edit(func(sb *SuperBlock) { sb.Heads[0].Digest.BlockID++ }),
		"truncated JSON":    good[:len(good)/2],
		"empty file":        nil,
		"not a super-block": []byte(`[1, 2, 3]`),
	} {
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(Options{Dir: dir, Name: "bank", Shards: 2, Clock: logicalClock()})
		if err == nil {
			db.Close()
			t.Errorf("%s: Open accepted the watermark", name)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	db = openShards(t, dir, 2)
	if db.LastSuperBlock() == nil {
		t.Fatal("the genuine watermark was not restored")
	}
	db.Close()
}

// FuzzSuperBlock: whatever bytes superblock.json holds, parsing and
// checking them returns — and a document that passes the check has one
// head per shard, each naming its own index, so nothing downstream can
// index out of range with it.
func FuzzSuperBlock(f *testing.F) {
	pub, priv, _ := ed25519.GenerateKey(nil)
	sb := &SuperBlock{DatabaseName: "bank", Shards: 2, SeqNo: 1,
		Heads: []ShardHead{{Shard: 0, Digest: Digest{DatabaseName: "bank/shard-000", Hash: strings.Repeat("ab", 32)}}, {Shard: 1, Empty: true}}}
	sb.Root = merkle.RootOf(sb.headLeaves()).String()
	hash := superBlockHash(sb)
	sb.Signature = ed25519.Sign(priv, hash[:])
	f.Add(sb.JSON())
	f.Add([]byte(strings.Replace(string(sb.JSON()), `"shard":1`, `"shard":99`, 1)))
	f.Add([]byte(`{"shards":-1,"heads":null}`))
	f.Add([]byte(`{"shards":1,"heads":[{"shard":0}],"public_key":"AA=="}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		sb, err := ParseSuperBlock(doc)
		if err != nil {
			return
		}
		for _, key := range []ed25519.PublicKey{pub, sb.PublicKey} {
			if CheckSuperBlock(sb, key) != nil {
				continue
			}
			if len(sb.Heads) != sb.Shards {
				t.Fatalf("checked super-block has %d heads for %d shards", len(sb.Heads), sb.Shards)
			}
			for i, h := range sb.Heads {
				if h.Shard != i {
					t.Fatalf("checked super-block head %d names shard %d", i, h.Shard)
				}
			}
		}
	})
}

// TestAbortedRowsAreNotIngested: the per-shard ingest counters and the
// imbalance gauge count rows when their transaction commits — a rolled
// back batch, and a batch whose two-phase prepare fails, leave them alone.
func TestAbortedRowsAreNotIngested(t *testing.T) {
	db := openShards(t, t.TempDir(), 2)
	defer db.Close()
	lt := mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable)
	batch := make([]sqltypes.Row, 40)
	for i := range batch {
		batch[i] = acct(fmt.Sprintf("acct-%04d", i), int64(i))
	}
	ingested := func() (n int64) {
		for _, c := range db.m.ingestRows {
			n += c.Value()
		}
		return n
	}
	base := ingested() // DDL bookkeeping rows

	tx := db.Begin("loader")
	if err := tx.InsertBatch(lt, batch); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// A prepare that fails: the commit was asked for after the engine
	// closed underneath shard 1.
	tx = db.Begin("loader")
	if err := tx.InsertBatch(lt, batch); err != nil {
		t.Fatal(err)
	}
	db.Shard(1).Engine().Close()
	if err := tx.Commit(); err == nil {
		t.Fatal("commit across a closed shard succeeded")
	}
	db.updateImbalance()
	if got := ingested(); got != base {
		t.Fatalf("aborted rows counted as ingested: %d", got-base)
	}
	if got := db.obs.Gauge(obs.ShardImbalanceRatio).Value(); base == 0 && got != 1 {
		t.Fatalf("imbalance gauge = %v after only aborted transactions, want 1", got)
	}
}

// TestOneShardFastPathAllocations pins what a transaction on a one-shard
// database allocates to what it allocated at commit d890989, before DB
// routed anything (TestCaptureAllocPins there, same bodies, metrics
// disabled so trace sampling cannot move the count): Begin + Get + Commit
// 5, Begin + Insert + Commit 33 (the row's key string and row included).
func TestOneShardFastPathAllocations(t *testing.T) {
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

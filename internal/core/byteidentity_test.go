package core

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// Pinned at commit 8817cbf, the last one that stored rows as []Value: the
// scripted history below must keep producing these bytes whatever the
// in-memory row representation is. The WAL hash leaves out CHECKPOINT
// frames, whose payload carries a wall-clock reading.
const (
	pinWALSHA     = "4c421b32a364ad1ffb2de25a4d6d1f13e29e327ebf5de046da774c6e67308846"
	pinSnapSHA    = "053db7bf0533f460020f5568dbe5e7ec08f4a28effcb29907110e5e0f469dbc0"
	pinDigestSHA  = "5a198afbd03a988f157ea15f6247e160b80e7b04fa5fa5c1e24b196705b880c2"
	pinReceiptSHA = "7ea7f79e2e1e5c2ad10564394b075a50ee801816f80b5d081d825d21e7ddefa6"
)

// Pinned at commit d890989, the last one with a second database type: the
// SHA-256 of each shard's head digest and the super-root that its
// OpenSharded(Shards: 4) produced for fourShardHistory. Captured by running
// that function there (Open spelled OpenSharded, nothing else changed) in a
// clone of the commit.
var (
	pinShardDigestSHAs = [4]string{
		"85ad7689ebe71e504294786729f19cae60844ea09fc182cf172bdf61ad0e6900",
		"b87f15f050fb04f3593317fdeffa678753e8ad603db9d7951801de2e09466b35",
		"e988f8de4ca511aca0db97dfe47c7f38f84f69cdd8103e27fcffd12cbdd8fc7d",
		"567b8a455d9345981b28ce7757d29e08e3932335c858d37622fe542a224a6b16",
	}
	pinSuperRoot = "86418a5a0fac9196b1f38dca81c83a9ab000f5956555241d1dcbe1c522aafa2a"
)

// fourShardHistory drives a 4-shard database under a logical clock through
// single-shard transactions, cross-shard ones (row by row, batched, an
// update and delete pair, a rollback), a checkpoint and more of both, and
// closes a super-block over it.
func fourShardHistory(t *testing.T) *SuperBlock {
	var tick atomic.Int64
	tick.Store(1_700_000_000_000_000_000)
	s, err := Open(Options{
		Dir: t.TempDir(), Name: "identity4", Shards: 4, BlockSize: 1000,
		Clock: func() int64 { return tick.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	must(err)
	name := func(i int) string { return fmt.Sprintf("acct-%04d", i) }
	key := func(i int) sqltypes.Value { return sqltypes.NewNVarChar(name(i)) }

	// Single-shard transactions: one row each.
	for i := 0; i < 3; i++ {
		tx := s.Begin("alice")
		must(tx.Insert(st, acct(name(i), int64(i))))
		must(tx.Commit())
	}
	// Cross-shard: 40 rows, one at a time, then a routed batch.
	tx := s.Begin("loader")
	for i := 3; i < 43; i++ {
		must(tx.Insert(st, acct(name(i), int64(i))))
	}
	must(tx.Commit())
	batch := make([]sqltypes.Row, 60)
	for i := range batch {
		batch[i] = acct(name(100+i), int64(100+i))
	}
	tx = s.Begin("loader")
	must(tx.InsertBatch(st, batch))
	must(tx.Commit())
	// Cross-shard update + delete: two keys on different shards.
	a, b := 0, 1
	for st.ShardOf(key(b)) == st.ShardOf(key(a)) {
		b++
	}
	tx = s.Begin("bob")
	must(tx.Update(st, acct(name(a), 1000)))
	must(tx.Update(st, acct(name(b), 2000)))
	must(tx.Delete(st, key(120)))
	must(tx.Commit())
	// A rolled-back cross-shard transaction leaves no trace.
	tx = s.Begin("mallory")
	must(tx.Update(st, acct(name(a), 1)))
	must(tx.Update(st, acct(name(b), 2)))
	must(tx.Rollback())

	must(s.Checkpoint())

	// After the checkpoint: one single-shard and one cross-shard transaction.
	tx = s.Begin("carol")
	must(tx.Update(st, acct(name(7), 7000)))
	must(tx.Commit())
	tx = s.Begin("carol")
	for i := 200; i < 210; i++ {
		must(tx.Insert(st, acct(name(i), int64(i))))
	}
	must(tx.Commit())

	sb, err := s.CloseSuperBlock()
	must(err)
	return sb
}

func wideSchema() *sqltypes.Schema {
	return sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("id", sqltypes.TypeBigInt),
		sqltypes.Col("owner", sqltypes.TypeNVarChar),
		sqltypes.NullableCol("score", sqltypes.TypeFloat),
		sqltypes.NullableCol("tag", sqltypes.TypeVarBinary),
		sqltypes.Col("qty", sqltypes.TypeInt),
	}, "id")
}

func wideRow(id int64, owner string, extra ...sqltypes.Value) sqltypes.Row {
	r := sqltypes.Row{
		sqltypes.NewBigInt(id),
		sqltypes.NewNVarChar(owner),
		sqltypes.NewFloat(float64(id) / 4),
		sqltypes.NewVarBinary([]byte{byte(id), 0x00, 0xfe}),
		sqltypes.NewInt(int32(id * 3)),
	}
	if id%3 == 0 {
		r[2] = sqltypes.NewNull(sqltypes.TypeFloat)
		r[3] = sqltypes.NewNull(sqltypes.TypeVarBinary)
	}
	return append(r, extra...)
}

// walSHAWithoutCheckpoints hashes the log's bytes minus its CHECKPOINT
// frames.
func walSHAWithoutCheckpoints(t *testing.T, path string) string {
	t.Helper()
	sum, checkpoints := walFramesSHA(t, path, false)
	if checkpoints != 2 {
		t.Fatalf("expected 2 checkpoint frames, found %d", checkpoints)
	}
	return sum
}

// walFramesSHA hashes the log's header and frames, leaving out the
// CHECKPOINT frames — it returns how many — and, with dropLast, the last
// frame.
func walFramesSHA(t *testing.T, path string, dropLast bool) (string, int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := wal.NewReader(path, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var lsns []int64
	skip := make(map[int64]bool)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(lsns) == 0 || lsns[len(lsns)-1] != rec.LSN {
			lsns = append(lsns, rec.LSN)
		}
		if rec.Type == wal.RecCheckpoint {
			skip[rec.LSN] = true
		}
	}
	h := sha256.New()
	h.Write(raw[:wal.HeaderLen])
	for i, lsn := range lsns {
		end := int64(len(raw))
		if i+1 < len(lsns) {
			end = lsns[i+1]
		} else if dropLast {
			break
		}
		if !skip[lsn] {
			h.Write(raw[lsn:end])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), len(skip)
}

func snapshotsSHA(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(snaps)
	if len(snaps) != 2 {
		t.Fatalf("expected 2 snapshots, found %v", snaps)
	}
	h := sha256.New()
	for _, p := range snaps {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(p)))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestByteIdentityWithParent drives inserts (one at a time, batched, and
// on a regular table), updates, deletes, two ADD COLUMNs and a DROP
// COLUMN, an index, a checkpoint on each side of a crash, and a reopen of
// the crash image, and compares everything that leaves the process — log,
// snapshots, digest, read receipt — with what the parent commit wrote.
func TestByteIdentityWithParent(t *testing.T) {
	var tick atomic.Int64
	tick.Store(1_700_000_000_000_000_000)
	open := func(dir string) *DB {
		l, err := Open(Options{
			Dir: dir, Name: "identity", BlockSize: 1000, Sync: wal.SyncFull, RecoveryWorkers: 2,
			Clock: func() int64 { return tick.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	l := open(dir)
	defer func() { l.Close() }()

	items, err := l.CreateLedgerTable("items", wideSchema(), engine.LedgerUpdateable)
	must(err)
	events := mustLedgerTable(t, l, "events", engine.LedgerAppendOnly)
	plain, err := l.Engine().CreateTable(engine.CreateTableSpec{Name: "plain", Schema: accountsSchema()})
	must(err)
	_, err = l.Engine().CreateIndex("items", "ix_items_owner", "owner")
	must(err)

	tx := l.Begin("alice")
	for id := int64(1); id <= 6; id++ {
		must(tx.Insert(items, wideRow(id, "alice")))
	}
	must(tx.Insert(events, account("opened", 6)))
	_, err = tx.Raw().Insert(plain, account("p1", 1))
	must(err)
	mustCommit(t, tx)

	batch := make([]sqltypes.Row, 40)
	for i := range batch {
		batch[i] = wideRow(int64(100+i), "bulk")
	}
	tx = l.Begin("loader")
	must(tx.InsertBatch(items, batch))
	mustCommit(t, tx)
	_, err = l.GenerateDigest() // block boundary
	must(err)

	tx = l.Begin("bob")
	must(tx.Update(items, wideRow(2, "bob")))
	must(tx.Delete(items, sqltypes.NewBigInt(3)))
	must(tx.Insert(items, wideRow(7, "bob")))
	must(tx.Update(items, wideRow(7, "bob-again"))) // update of the transaction's own insert
	_, err = tx.Raw().Update(plain, account("p1", 2))
	must(err)
	mustCommit(t, tx)

	must(l.AddColumn(items, sqltypes.NullableCol("note", sqltypes.TypeNVarChar)))
	tx = l.Begin("carol")
	must(tx.Insert(items, wideRow(8, "carol", sqltypes.NewNVarChar("first wide row"))))
	must(tx.Update(items, wideRow(4, "carol", sqltypes.NewNull(sqltypes.TypeNVarChar)))) // narrow row rewritten wide
	mustCommit(t, tx)

	must(l.Checkpoint()) // rows 1, 5, 6 and the batch were logged before ADD COLUMN

	must(l.AddColumn(items, sqltypes.NullableCol("grade", sqltypes.TypeSmallInt)))
	must(l.DropColumn(items, "score"))
	// "score" is gone from the visible row: id, owner, tag, qty, note, grade.
	visible := func(id int64, owner string, note sqltypes.Value, grade int16) sqltypes.Row {
		w := wideRow(id, owner)
		return sqltypes.Row{w[0], w[1], w[3], w[4], note, sqltypes.NewSmallInt(grade)}
	}
	tx = l.Begin("dave")
	must(tx.Insert(items, visible(9, "dave", sqltypes.NewNVarChar("after drop"), 3)))
	must(tx.Update(items, visible(5, "dave", sqltypes.NewNull(sqltypes.TypeNVarChar), -2)))
	must(tx.Delete(items, sqltypes.NewBigInt(101)))
	must(tx.Insert(events, account("regraded", 2)))
	mustCommit(t, tx)
	_, err = l.GenerateDigest()
	must(err)

	// Crash: everything acknowledged is on disk (SyncFull); the image is
	// the directory as it stands.
	crash := t.TempDir()
	copyDir(t, dir, crash)
	must(l.Close())
	l = open(crash)
	items, err = l.LedgerTable("items")
	must(err)
	events, err = l.LedgerTable("events")
	must(err)

	tx = l.Begin("erin")
	must(tx.Update(items, visible(1, "erin", sqltypes.NewNVarChar("narrow before the crash"), 1)))
	must(tx.Delete(items, sqltypes.NewBigInt(6)))
	must(tx.Insert(events, account("recovered", 1)))
	mustCommit(t, tx)

	rt := l.BeginReadOnlyForReceipt()
	if _, ok, err := rt.Get(items, sqltypes.NewBigInt(1)); err != nil || !ok {
		t.Fatalf("snapshot get: ok=%v err=%v", ok, err)
	}
	must(rt.ScanPrefix(items, func(sqltypes.Row) bool { return true }, sqltypes.NewBigInt(110)))
	must(rt.Scan(events, func(sqltypes.Row) bool { return true }))
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x5a}, ed25519.SeedSize))
	receipt, err := rt.CloseWithReceipt(priv)
	must(err)
	must(VerifyReadReceipt(receipt, priv.Public().(ed25519.PublicKey)))

	must(l.Checkpoint()) // unrewritten rows are still as narrow as they were logged
	digest, err := l.GenerateDigest()
	must(err)
	verifyOK(t, l, []Digest{digest})

	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	sb := fourShardHistory(t)
	for _, c := range []struct{ what, got, want string }{
		{"WAL", walSHAWithoutCheckpoints(t, filepath.Join(crash, "wal.log")), pinWALSHA},
		{"snapshots", snapshotsSHA(t, crash), pinSnapSHA},
		{"digest", sum(digest.JSON()), pinDigestSHA},
		{"read receipt", sum(receipt.JSON()), pinReceiptSHA},
		{"4-shard digest 0", sum(sb.Heads[0].Digest.JSON()), pinShardDigestSHAs[0]},
		{"4-shard digest 1", sum(sb.Heads[1].Digest.JSON()), pinShardDigestSHAs[1]},
		{"4-shard digest 2", sum(sb.Heads[2].Digest.JSON()), pinShardDigestSHAs[2]},
		{"4-shard digest 3", sum(sb.Heads[3].Digest.JSON()), pinShardDigestSHAs[3]},
		{"4-shard super-root", sb.Root, pinSuperRoot},
	} {
		if c.got != c.want {
			t.Errorf("%s SHA-256 = %s, pinned %s", c.what, c.got, c.want)
		}
	}
}

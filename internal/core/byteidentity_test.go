package core

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
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
// frames, whose payload carries a wall-clock reading. The WAL and snapshot
// pins were re-captured when the log header grew to 16 bytes to carry the
// create time (format version 3): the frames hashed are the same bytes as
// before, but the header is not, and every LSN — so every snapshot file
// name — moved by 8. The snapshot pin was re-captured again when a
// snapshot became a file of the WAL's format (snap-<lsn>.log): the same
// catalog and rows, framed as one transaction, under the log's header.
// Both were re-captured once more for format version 4, which logs no key
// for a keyed row's INSERT or UPDATE and no ledger entry field its COMMIT
// record already holds, and again for format version 5, which gives each
// value of a row one header byte instead of two. pinLogSemanticsSHA, what
// the log says (logSemanticsSHA), was captured from the version-3 log of
// the commit before version 4 and did not move then; when it came to hash
// an after-image's values rather than its bytes it was captured again from
// the version-4 log of commit 32ff229, and version 5 gives the same sum.
const (
	pinWALSHA     = "9bd3c902c20de0e530c90e39fef159dea5c85fdbb8c29f2470589179d87eb8f3"
	pinSnapSHA    = "48628d0a8a9129399d89eb4740a584f85ef09d5d25a8899a9c7111c6b98d09dd"
	pinDigestSHA  = "5a198afbd03a988f157ea15f6247e160b80e7b04fa5fa5c1e24b196705b880c2"
	pinReceiptSHA = "7ea7f79e2e1e5c2ad10564394b075a50ee801816f80b5d081d825d21e7ddefa6"

	pinLogSemanticsSHA = "8d0933c29b6690a6e5cf554f8968fbfa5a871618dbff21efce98f187e8be5788"
)

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

// rowSemantics returns what the encoded row b says rather than how it is
// laid out: its width and, per value, its type, its NULL flag and its
// payload — an integer's or a float's 64 bits, or a string's or a binary's
// bytes after their length. A change of the row codec alone leaves it as
// it was.
func rowSemantics(t *testing.T, b []byte) []byte {
	t.Helper()
	row, err := sqltypes.DecodeRowAlias(nil, b, nil)
	if err != nil {
		t.Fatalf("row %x: %v", b, err)
	}
	out := binary.AppendUvarint(nil, uint64(len(row)))
	for _, v := range row {
		out = append(out, byte(v.Type))
		switch {
		case v.Null:
			out = append(out, 1)
		case v.Type.IsString():
			out = binary.AppendUvarint(append(out, 0), uint64(len(v.Str)))
			out = append(out, v.Str...)
		case v.Type.IsBytes():
			out = binary.AppendUvarint(append(out, 0), uint64(len(v.Bytes)))
			out = append(out, v.Bytes...)
		case v.Type == sqltypes.TypeFloat:
			out = binary.BigEndian.AppendUint64(append(out, 0), math.Float64bits(v.F64))
		default:
			out = binary.BigEndian.AppendUint64(append(out, 0), uint64(v.I64))
		}
	}
	return out
}

// logSemanticsSHA hashes what the log at path says rather than how it is
// laid out: per record, its type and transaction id and, for a DML record,
// the table id, the clustered key — derived from the after-image by the
// table of db where the log leaves it out — and the after-image's values
// (rowSemantics), for a COMMIT its time, user and ledger entry, field by
// field, and for a DDL record its payload. CHECKPOINT records, whose
// payload carries a wall-clock reading, are left out. A format change that
// drops only what a reader can derive, or re-encodes a row's values,
// leaves the sum as it was.
func logSemanticsSHA(t *testing.T, path string, db *engine.DB) string {
	t.Helper()
	rd, err := wal.NewReader(path, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	h := sha256.New()
	num := func(u uint64) { h.Write(binary.AppendUvarint(nil, u)) }
	put := func(b []byte) { num(uint64(len(b))); h.Write(b) }
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == wal.RecCheckpoint {
			continue
		}
		num(uint64(rec.Type))
		num(rec.TxID)
		switch rec.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			m, err := wal.DecodeDMLImage(rec.Type, rec.Payload)
			key := m.Key
			if err == nil && len(key) == 0 && m.After != nil {
				var tab *engine.Table
				if tab, err = db.TableByID(m.TableID); err == nil {
					key, err = tab.KeyOfStored(nil, m.After)
				}
			}
			if err != nil {
				t.Fatalf("%s record at LSN %d: %v", rec.Type, rec.LSN, err)
			}
			num(uint64(m.TableID))
			put(key)
			if m.After != nil {
				put(rowSemantics(t, m.After))
			} else {
				put(nil)
			}
		case wal.RecCommit:
			p, err := wal.DecodeCommit(rec.TxID, rec.Payload)
			if err != nil {
				t.Fatalf("COMMIT at LSN %d: %v", rec.LSN, err)
			}
			num(uint64(p.CommitTS))
			put([]byte(p.User))
			if e := p.Entry; e != nil {
				num(1)
				num(e.TxID)
				num(e.BlockID)
				num(uint64(e.Ordinal))
				num(uint64(e.CommitTS))
				put([]byte(e.User))
				num(uint64(len(e.Roots)))
				for _, r := range e.Roots {
					num(uint64(r.TableID))
					put(r.Root[:])
				}
			} else {
				num(0)
			}
		default:
			put(rec.Payload)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func snapshotsSHA(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.log"))
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
	for _, c := range []struct{ what, got, want string }{
		{"log semantics", logSemanticsSHA(t, filepath.Join(crash, "wal.log"), l.Engine()), pinLogSemanticsSHA},
		{"WAL", walSHAWithoutCheckpoints(t, filepath.Join(crash, "wal.log")), pinWALSHA},
		{"snapshots", snapshotsSHA(t, crash), pinSnapSHA},
		{"digest", sum(digest.JSON()), pinDigestSHA},
		{"read receipt", sum(receipt.JSON()), pinReceiptSHA},
	} {
		if c.got != c.want {
			t.Errorf("%s SHA-256 = %s, pinned %s", c.what, c.got, c.want)
		}
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// TestReopenMidBlock commits into a partially filled block, "crashes"
// (closes without a checkpoint), reopens and checks that the queue is
// rebuilt from COMMIT records and verification passes.
func TestReopenMidBlock(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 10)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	for i := 0; i < 4; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	l.Close()

	l2 := openLedgerAt(t, dir, 10)
	lt2, err := l2.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if lt2.Table().RowCount() != 4 {
		t.Fatalf("rows after reopen = %d", lt2.Table().RowCount())
	}
	// All four transactions must still be reachable in the ledger.
	d, err := l2.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l2, []Digest{d})
	// And new transactions continue in the right block position.
	tx := l2.Begin("u")
	tx.Insert(lt2, account("post-crash", 5))
	mustCommit(t, tx)
	d2, err := l2.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.VerifyDigestDerivation(d, d2); err != nil {
		t.Fatalf("chain continuity broken across reopen: %v", err)
	}
	verifyOK(t, l2, []Digest{d, d2})
}

// TestReopenAfterCheckpoint exercises the drain-at-checkpoint path: the
// queue is persisted to the system table inside the snapshot; after reopen
// nothing is lost and no entry is duplicated.
func TestReopenAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 5)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	for i := 0; i < 7; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint commits live only in the WAL.
	for i := 7; i < 9; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	l.Close()

	l2 := openLedgerAt(t, dir, 5)
	d, err := l2.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	rep := verifyOK(t, l2, []Digest{d})
	// 9 user txs + metadata registration txs; just ensure nothing is
	// missing or duplicated by checking row/entry consistency held.
	if rep.TransactionsChecked < 9 {
		t.Fatalf("transactions checked = %d", rep.TransactionsChecked)
	}
}

// TestDigestSurvivesReopen: a digest generated before a clean reopen still
// verifies afterwards (blocks are durable via the WAL-logged block table).
func TestDigestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 3)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 6)
	l.Close()

	l2 := openLedgerAt(t, dir, 3)
	verifyOK(t, l2, []Digest{d})
}

// TestTamperSurvivesOnlyUntilVerification: tamper, checkpoint (persisting
// the tampered state), reopen — verification still catches it because the
// hashes were recorded before the tampering.
func TestTamperPersistedAcrossReopenStillDetected(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 5)
	key := firstKeyOf(t, lt.Table())
	l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(666)
		return r
	}, true)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := openLedgerAt(t, dir, 100)
	verifyFails(t, l2, []Digest{d}, 4)
}

// TestCheckpointRefusesBytesThatAreNoRow: a checkpoint persists what
// storage holds, and bytes that are no row — a history row overwritten
// with 09 01, or a keyed row cut after its key columns — would make
// restart skip the snapshot and replay the log over the edit, turning a
// red Verify green. The checkpoint fails instead, naming the table and the
// key, and writes no snapshot; Verify stays red.
func TestCheckpointRefusesBytesThatAreNoRow(t *testing.T) {
	for _, c := range []struct {
		name   string
		tamper func(lt *LedgerTable) (*engine.Table, []byte, []byte)
	}{
		{"history row 09 01", func(lt *LedgerTable) (*engine.Table, []byte, []byte) {
			return lt.History(), firstKeyOf(t, lt.History()), []byte{9, 1}
		}},
		{"keyed row cut after its key", func(lt *LedgerTable) (*engine.Table, []byte, []byte) {
			key := firstKeyOf(t, lt.Table())
			stored, _ := lt.Table().LookupStored(key)
			row, err := sqltypes.DecodeRowAlias(nil, stored, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The value count as stored, then the key column alone.
			return lt.Table(), key, append(bytes.Clone(stored[:1]), sqltypes.EncodeRow(nil, row[:1])[1:]...)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openLedgerAt(t, dir, 100)
			lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
			seedAccounts(t, l, lt, 3)
			tx := l.Begin("u")
			if err := tx.Update(lt, account(acctName(1), 99)); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			d, err := l.GenerateDigest()
			if err != nil {
				t.Fatal(err)
			}
			tab, key, raw := c.tamper(lt)
			if err := l.Engine().TamperSetStoredRow(tab, key, raw); err != nil {
				t.Fatal(err)
			}
			before, _ := filepath.Glob(filepath.Join(dir, "snap-*.log"))
			err = l.Checkpoint()
			if err == nil || !strings.Contains(err.Error(), "table "+tab.Name()) || !strings.Contains(err.Error(), fmt.Sprintf("%x", key)) {
				t.Fatalf("Checkpoint = %v, want an error naming table %s and key %x", err, tab.Name(), key)
			}
			if after, _ := filepath.Glob(filepath.Join(dir, "snap-*.log")); len(after) != len(before) {
				t.Fatalf("a failed checkpoint left %v, there were %v", after, before)
			}
			verifyFails(t, l, []Digest{d}, 4)
		})
	}
}

// TestColumnTypeTamperOnIndexedColumnAcrossReopen: the §3.2 metadata
// attack on an indexed column, persisted by a checkpoint. The reopened
// index holds no entry for a row whose value does not carry the declared
// type, and verification expects none: it reports invariant 4 for the
// rows, nothing for the index, and nothing panics on the way.
func TestColumnTypeTamperOnIndexedColumnAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	if _, err := l.Engine().CreateIndex("accounts", "ix_balance", "balance"); err != nil {
		t.Fatal(err)
	}
	d := seedAccounts(t, l, lt, 5)
	if err := l.Engine().TamperColumnType(lt.Table(), "balance", sqltypes.TypeInt); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := openLedgerAt(t, dir, 100)
	rep := verifyFails(t, l2, []Digest{d}, 4)
	for _, i := range rep.Issues {
		if i.Invariant == 5 {
			t.Fatalf("the index of a column whose values are all of another type is reported:\n%s", rep)
		}
	}
}

// TestLargeBlockBoundary drives exactly BlockSize transactions and checks
// the block closes with the right count, plus the next tx starts block 2.
func TestBlockBoundary(t *testing.T) {
	l := openTestLedger(t, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	// Metadata registration already used some slots; fill up with user
	// transactions and force closes via digest.
	for i := 0; i < 9; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	// All closed blocks must be dense: count recorded == entries present,
	// which verification checks; and the digest block must be the last.
	rep := verifyOK(t, l, []Digest{d})
	if rep.BlocksChecked < 2 {
		t.Fatalf("expected multiple blocks, got %d", rep.BlocksChecked)
	}
	var maxBlock int64 = -1
	l.sysBlocks.Scan(func(_ []byte, r sqltypes.Row) bool {
		if r[0].Int() > maxBlock {
			maxBlock = r[0].Int()
		}
		return true
	})
	if uint64(maxBlock) != d.BlockID {
		t.Fatalf("digest block %d != max block %d", d.BlockID, maxBlock)
	}
}

// TestConcurrentLedgerCommits checks the commit-path block assignment and
// queue under concurrency, then verifies.
func TestConcurrentLedgerCommits(t *testing.T) {
	l := openTestLedger(t, 8)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	const goroutines = 6
	const perG = 20
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				tx := l.Begin("worker")
				if err := tx.Insert(lt, account(acctName(g*100+i)+string(rune('a'+g)), int64(i))); err != nil {
					errCh <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d})
}

// TestSnapshotRowsSwappedFallsBack: an insider swaps two rows of a ledger
// table's snapshot and recomputes their frame's CRC. A
// tree bulk-loaded from that order would miss keys its scan returns, so
// the snapshot must be skipped with a warning naming it; replay from the
// log restores the table, every key is found and verification is green.
func TestSnapshotRowsSwappedFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	for i := 0; i < 8; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	tx.Update(lt, account(acctName(3), 33))
	mustCommit(t, tx)
	id := lt.Table().ID()
	l.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.log"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %v", snaps)
	}
	swapSnapshotRows(t, snaps[0], id)

	l = openLedgerAt(t, dir, 4)
	ev := l.Obs().Events().RecentOfType(obs.EventSnapshotSkipped, 10)
	if len(ev) != 1 || fmt.Sprint(ev[0].Attrs[0].Value) != snaps[0] ||
		!strings.Contains(fmt.Sprint(ev[0].Attrs[1].Value), "key order") {
		t.Fatalf("skip events %+v, want one naming %s and the key order", ev, snaps[0])
	}
	lt, err := l.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tx = l.Begin("u")
	for i := 0; i < 8; i++ {
		row, ok, err := tx.Get(lt, sqltypes.NewNVarChar(acctName(i)))
		if err != nil || !ok {
			t.Fatalf("Get %s after restart: ok=%v err=%v", acctName(i), ok, err)
		}
		want := int64(i)
		if i == 3 {
			want = 33
		}
		if row[1].I64 != want {
			t.Fatalf("%s = %v, want balance %d", acctName(i), row, want)
		}
	}
	tx.Rollback()
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, []Digest{d})
}

// swapSnapshotRows swaps the first two rows of table id in the snapshot
// at path and recomputes the CRC of their frame: every checksum holds, and
// the table's rows are out of key order.
func swapSnapshotRows(t *testing.T, path string, id uint32) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	for pos := wal.HeaderLen; pos+8 <= len(b); {
		crc, body := b[pos+4:pos+8], b[pos+8:pos+8+int(le.Uint32(b[pos:]))]
		pos += 8 + len(body)
		// body: txid, then records of type, payload length, payload
		// (table id first for an INSERT).
		_, p := binary.Uvarint(body)
		var recs [][]byte
		for p < len(body) {
			n, w := binary.Uvarint(body[p+1:])
			recs = append(recs, body[p:p+1+w+int(n)])
			p += 1 + w + int(n)
		}
		if len(recs) < 2 || recs[0][0] != byte(wal.RecInsert) {
			continue
		}
		_, w := binary.Uvarint(recs[0][1:])
		if tid, _ := binary.Uvarint(recs[0][1+w:]); tid != uint64(id) {
			continue
		}
		copy(recs[0][:len(recs[0])+len(recs[1])], append(bytes.Clone(recs[1]), recs[0]...))
		le.PutUint32(crc, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		break
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

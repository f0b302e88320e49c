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
	l.shards[0].sysBlocks.Scan(func(_ []byte, r sqltypes.Row) bool {
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
// table's snapshot section and recomputes the section and header CRCs. A
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

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
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

// swapSnapshotRows swaps the first two rows of table id's section of the
// snapshot at path and recomputes that section's CRC and the header's:
// every checksum holds, and the section is out of key order.
func swapSnapshotRows(t *testing.T, path string, id uint32) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le, castagnoli := binary.LittleEndian, crc32.MakeTable(crc32.Castagnoli)
	pos := 16     // magic, cut timestamp
	for range 2 { // catalog, ledger state
		pos += 4 + int(le.Uint32(b[pos:]))
	}
	end := pos + 4 + 32*int(le.Uint32(b[pos:]))
	for e := b[pos+4 : end]; len(e) > 0; e = e[32:] {
		if le.Uint32(e) != id {
			continue
		}
		sec := b[le.Uint64(e[12:]):][:le.Uint64(e[20:])]
		next := func(p int) int { return p + 4 + int(le.Uint32(sec[p:])) }
		first := next(next(0))
		second := next(next(first))
		copy(sec, append(bytes.Clone(sec[first:second]), sec[:first]...))
		le.PutUint32(e[28:], crc32.Checksum(sec, castagnoli))
	}
	le.PutUint32(b[end:], crc32.Checksum(b[:end], castagnoli))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

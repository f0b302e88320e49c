package engine

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// rowsOf renders table name's live rows as [k=v ...], or "no table".
func rowsOf(t *testing.T, db *DB, name string) string {
	t.Helper()
	tab, err := db.Table(name)
	if err != nil {
		return "no table"
	}
	var kvs []string
	tab.Scan(func(_ []byte, r sqltypes.Row) bool {
		kvs = append(kvs, fmt.Sprintf("%d=%s", r[0].I64, r[1].Str))
		return true
	})
	return fmt.Sprint(kvs)
}

// insertKV commits k=v into table name, creating the table first if the
// database has none of that name.
func insertKV(t *testing.T, db *DB, name string, k int64, v string) {
	t.Helper()
	tab, err := db.Table(name)
	if err != nil {
		tab = mustCreate(t, db, name, kvSchema())
	}
	tx := db.Begin("u")
	if _, err := tx.Insert(tab, kv(k, v)); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)
}

// requireSkipped checks that db's recovery skipped exactly one snapshot,
// for a reason that contains want.
func requireSkipped(t *testing.T, db *DB, want string) {
	t.Helper()
	ev := db.obs.Events().RecentOfType(obs.EventSnapshotSkipped, 10)
	if len(ev) != 1 || !strings.Contains(fmt.Sprint(ev[0].Attrs[1].Value), want) {
		t.Fatalf("skip events %+v, want one for %q", ev, want)
	}
}

// TestSnapshotOfAnotherIncarnationSkipped: a snapshot left beside a log
// that was created anew belongs to another incarnation. Loading it brought
// back the old row under the new incarnation, and replay from its LSN —
// an offset of the old log — lost what the new one committed.
func TestSnapshotOfAnotherIncarnationSkipped(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	insertKV(t, db, "t", 1, "old")
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := os.Remove(filepath.Join(dir, walFileName)); err != nil {
		t.Fatal(err)
	}

	db = openDBAt(t, dir)
	requireSkipped(t, db, "another incarnation")
	if got := rowsOf(t, db, "t"); got != "no table" {
		t.Fatalf("state under the new incarnation = %s, want no table", got)
	}
	insertKV(t, db, "t", 2, "new")
	db.Close()

	db = openDBAt(t, dir)
	defer db.Close()
	if got := rowsOf(t, db, "t"); got != "[2=new]" {
		t.Fatalf("state after restart = %s, want [2=new]", got)
	}
}

// TestSnapshotPastRepairedLogEndSkipped: wal.Repair cuts the log below a
// snapshot. Loading the snapshot brought back the commit Repair dropped,
// and once the log had grown back to the snapshot's LSN, a restart
// replayed nothing before it and lost what had been committed since. The
// snapshot stays skipped when the log grows past its LSN: the frame there
// is no longer the CHECKPOINT record that names it.
func TestSnapshotPastRepairedLogEndSkipped(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	insertKV(t, db, "t", 1, "a")
	bAt := db.log.Size()
	insertKV(t, db, "t", 2, "b")
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	path := filepath.Join(dir, walFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[bAt+10] ^= 0xFF // inside b's frame, which a CHECKPOINT frame follows
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if dropped, err := wal.Repair(path); err != nil || dropped != int64(len(raw))-bAt {
		t.Fatalf("Repair dropped %d bytes (%v), want %d", dropped, err, int64(len(raw))-bAt)
	}

	db = openDBAt(t, dir)
	requireSkipped(t, db, "no frame at LSN")
	if got := rowsOf(t, db, "t"); got != "[1=a]" {
		t.Fatalf("state after repair = %s, want [1=a]", got)
	}
	// c's frame is as long as b's was, so the log ends at the snapshot's
	// LSN again, and d's frame starts there.
	for _, c := range []struct {
		k    int64
		v    string
		want string
	}{{3, "c", "[1=a 3=c]"}, {4, "d", "[1=a 3=c 4=d]"}} {
		insertKV(t, db, "t", c.k, c.v)
		db.Close()
		db = openDBAt(t, dir)
		if got := rowsOf(t, db, "t"); got != c.want {
			t.Fatalf("state after committing %d=%s and a restart = %s, want %s", c.k, c.v, got, c.want)
		}
	}
	db.Close()
}

// TestCheckpointKeepsTwoSnapshots: after five checkpoints only the newest
// snapshot and the one before it are left, and when the newest is
// damaged, recovery starts from the one before it.
func TestCheckpointKeepsTwoSnapshots(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	var lsns []int64
	for i := range 5 {
		insertKV(t, db, "t", int64(i), "v")
		lsn, err := db.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	insertKV(t, db, "t", 5, "v")
	want := dumpState(t, db)
	db.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
	if len(snaps) != 2 || snaps[0] != snapPath(db, lsns[3]) || snaps[1] != snapPath(db, lsns[4]) {
		t.Fatalf("snapshots after 5 checkpoints = %v, want those of LSNs %d and %d", snaps, lsns[3], lsns[4])
	}
	b, err := os.ReadFile(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(snaps[1], b, 0o644); err != nil {
		t.Fatal(err)
	}

	db = openDBAt(t, dir)
	defer db.Close()
	requireSkipped(t, db, wal.ErrCorrupt.Error())
	if db.redoFrom != lsns[3] {
		t.Fatalf("redo started at LSN %d, want the previous snapshot's %d", db.redoFrom, lsns[3])
	}
	if got := dumpState(t, db); got != want {
		t.Fatalf("state:\n%s\nwant:\n%s", got, want)
	}
}

// TestOldSnapshotFilesIgnored: snapshot files of the format before this
// one (snap-<lsn>.snap) are never read — the log covers them — and never
// touched, and neither is a checkpoint's leftover temp file.
func TestOldSnapshotFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	insertKV(t, db, "t", 1, "a")
	insertKV(t, db, "t", 2, "b")
	want := dumpState(t, db)
	db.Close()
	// An old snapshot at an LSN the log holds, whose contents would load
	// another state if anything read them.
	old := map[string][]byte{
		filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", wal.HeaderLen)): bytes.Repeat([]byte{0xA5}, 300),
		filepath.Join(dir, fmt.Sprintf(snapName, 1<<40)+".tmp"):           []byte("torn"),
	}
	for p, b := range old {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db = openDBAt(t, dir)
	defer db.Close()
	if ev := db.obs.Events().RecentOfType(obs.EventSnapshotSkipped, 10); len(ev) != 0 {
		t.Fatalf("skip events %+v: an old snapshot file was read", ev)
	}
	if got := dumpState(t, db); got != want {
		t.Fatalf("state:\n%s\nwant:\n%s", got, want)
	}
	for i := range 3 {
		insertKV(t, db, "t", int64(3+i), "c")
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for p, b := range old {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("%s after three checkpoints: %v, changed=%v", p, err, !bytes.Equal(got, b))
		}
	}
}

// TestSnapshotIsOneTransaction: a checkpoint of more rows than one frame
// holds reads back as the catalog, INSERT frames of at most
// snapshotScanChunk rows in (table id, key) order, and one COMMIT at the
// cut, under the log's create time.
func TestSnapshotIsOneTransaction(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	defer db.Close()
	a := mustCreate(t, db, "a", kvSchema())
	mustCreate(t, db, "empty", kvSchema())
	b := mustCreate(t, db, "b", kvSchema())
	tx := db.Begin("u")
	for k := range int64(snapshotScanChunk + 5) {
		tx.Insert(a, kv(k, "x"))
	}
	tx.Insert(b, kv(7, "y"))
	commit(t, db, tx)
	lsn, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snapPath(db, lsn))
	if err != nil {
		t.Fatal(err)
	}
	r, createTime, err := wal.NewBytesReader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if createTime != db.CreateTime() {
		t.Fatalf("snapshot create time %d, log's %d", createTime, db.CreateTime())
	}
	var types []string
	frameRows := map[int64]int{}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, rec.Type.String())
		switch rec.Type {
		case wal.RecInsert:
			frameRows[rec.LSN]++
		case wal.RecCommit:
			p, err := wal.DecodeCommit(rec.TxID, rec.Payload)
			if err != nil || p.CommitTS != db.LastCommitTS() {
				t.Fatalf("COMMIT %+v (%v), want the cut %d", p, err, db.LastCommitTS())
			}
		}
	}
	if n := len(types); n != snapshotScanChunk+8 || types[0] != "DDL" || types[n-1] != "COMMIT" {
		t.Fatalf("records %s ... %s (%d), want DDL, %d INSERTs, COMMIT", types[0], types[n-1], n, snapshotScanChunk+6)
	}
	if len(frameRows) != 3 {
		t.Fatalf("INSERT frames %v, want 3: a full chunk and five rows of a, one of b", frameRows)
	}
	for _, n := range frameRows {
		if n > snapshotScanChunk {
			t.Fatalf("a frame holds %d rows", n)
		}
	}
}

// TestCheckpointRefusesARowWithoutItsKey: a snapshot keeps a keyed row
// without its key, which a reader derives from the row. A row edited in
// storage so that its key columns no longer give the key it sits under
// would be moved to another key, or make the file fail to load and
// restart replay the log over it, so the checkpoint fails instead, naming
// the table and the key, and writes no snapshot.
func TestCheckpointRefusesARowWithoutItsKey(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	for k := int64(1); k <= 3; k++ {
		tx.Insert(tab, kv(k, "v"))
	}
	commit(t, db, tx)
	key := tab.KeyFor(kv(1, ""))
	if err := db.TamperUpdateRow(tab, key, func(r sqltypes.Row) sqltypes.Row {
		r[0] = sqltypes.NewBigInt(7)
		return r
	}, true); err != nil {
		t.Fatal(err)
	}
	_, err := db.Checkpoint()
	if want := fmt.Sprintf("table t: the row under key %x: it holds key %x", key, tab.KeyFor(kv(7, ""))); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Checkpoint = %v, want an error naming %q", err, want)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.log")); len(snaps) != 0 {
		t.Fatalf("a failed checkpoint left %v", snaps)
	}
}

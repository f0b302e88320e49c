package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// tableState renders a table's live rows as sorted "k=v" strings.
func tableState(t *testing.T, db *DB, name string) []string {
	t.Helper()
	tab, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	tab.ScanRange(nil, nil, func(_ []byte, r sqltypes.Row) bool {
		out = append(out, fmt.Sprintf("%d=%s", r[0].I64, r[1].Str))
		return true
	})
	sort.Strings(out)
	return out
}

// TestTornTailEveryCutOfLastCommit cuts a log at every byte offset inside
// its last frame — a multi-record commit — and reopens the database: each
// cut must recover exactly the previous commit's state (a commit is in the
// log entirely or not at all, so there is no orphan DML to discard),
// report one torn-tail event, and keep accepting commits; the uncut log
// recovers the full state. Each cut is tried twice: as the end of the file,
// and followed by a page of zeros (the file system had extended the file,
// the data never arrived).
func TestTornTailEveryCutOfLastCommit(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	for k := int64(1); k <= 3; k++ {
		tx.Insert(tab, kv(k, fmt.Sprintf("first-%d", k)))
	}
	commit(t, db, tx)
	prevEnd := db.LogSize()
	prevState := tableState(t, db, "t")
	tx = db.Begin("u")
	tx.Insert(tab, kv(4, "second-4"))
	if _, err := tx.Update(tab, kv(1, "second-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete(tab, sqltypes.NewBigInt(2)); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)
	fullEnd := db.LogSize()
	fullState := tableState(t, db, "t")
	db.Close()
	img, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(img)) != fullEnd || fullEnd-prevEnd < 40 {
		t.Fatalf("log is %d bytes, last frame %d..%d", len(img), prevEnd, fullEnd)
	}

	for i := 2 * prevEnd; i <= 2*fullEnd+1; i++ {
		cut, zeros := i/2, int(i%2)*4096
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, walFileName), append(img[:cut:cut], make([]byte, zeros)...), 0o644); err != nil {
			t.Fatal(err)
		}
		cdb, err := Open(Options{Dir: cutDir})
		if err != nil {
			t.Fatalf("cut at %d + %d zeros: %v", cut, zeros, err)
		}
		want, wantTorn := prevState, 1
		// The frame may end in zero bytes; cutting those and adding zeros
		// puts it back together.
		whole := cut == fullEnd || zeros > 0 && int64(len(bytes.TrimRight(img, "\x00"))) <= cut
		if whole {
			want = fullState
		}
		if (cut == prevEnd || cut == fullEnd) && zeros == 0 {
			wantTorn = 0 // cut on a frame boundary: nothing is torn
		}
		if got := tableState(t, cdb, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut at %d: state %v, want %v", cut, got, want)
		}
		if n := len(cdb.Obs().Events().RecentOfType(obs.EventWALTornTail, 10)); n != wantTorn {
			t.Fatalf("cut at %d: %d torn-tail events, want %d", cut, n, wantTorn)
		}
		if !whole && cdb.LogSize() != prevEnd {
			t.Fatalf("cut at %d: log resumes at %d, want %d", cut, cdb.LogSize(), prevEnd)
		}
		// Appends resume cleanly: one more commit, one more restart.
		ctab, _ := cdb.Table("t")
		tx := cdb.Begin("u")
		tx.Insert(ctab, kv(9, "after"))
		commit(t, cdb, tx)
		want = tableState(t, cdb, "t")
		cdb.Close()
		rdb, err := Open(Options{Dir: cutDir})
		if err != nil {
			t.Fatalf("cut at %d: second restart: %v", cut, err)
		}
		if got := tableState(t, rdb, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut at %d: after resuming, state %v, want %v", cut, got, want)
		}
		rdb.Close()
	}
}

// TestOpenV1DatabaseFailsUntouched opens a database directory written by
// the last build of WAL format version 1 (the golden log and the snapshot
// its checkpoint wrote): Open must fail with wal.ErrFormat{1, 2} before
// any byte of any file is modified. DESIGN.md decision 17 says why the
// repository refuses the upgrade rather than carrying a version-1 reader.
func TestOpenV1DatabaseFailsUntouched(t *testing.T) {
	dir := t.TempDir()
	golden := map[string]string{
		walFileName:                  "../wal/testdata/wal_v1.golden.log",
		"snap-00000000000003ab.snap": "../wal/testdata/wal_v1.golden.snap-00000000000003ab.snap",
	}
	before := make(map[string][]byte)
	for name, src := range golden {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		before[name] = b
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(Options{Dir: dir})
	var ferr wal.ErrFormat
	if !errors.As(err, &ferr) || ferr != (wal.ErrFormat{Have: 1, Want: wal.FormatVersion}) {
		if db != nil {
			db.Close()
		}
		t.Fatalf("Open(v1 database) = %v, want ErrFormat{1, %d}", err, wal.FormatVersion)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(golden) {
		t.Fatalf("failed Open left %d files in the directory, want %d", len(entries), len(golden))
	}
	for name, want := range before {
		if got, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(got, want) {
			t.Fatalf("failed Open modified %s", name)
		}
	}
}

// TestRestoreToTimeAcrossPrepare: a two-phase participant's PREPARE frame
// and its COMMIT frame are separated by another transaction's commit. The
// restore must pair them up by transaction, whichever side of the target
// time the decision falls on.
func TestRestoreToTimeAcrossPrepare(t *testing.T) {
	srcDir := t.TempDir()
	db := openDBAt(t, srcDir)
	tab := mustCreate(t, db, "t", kvSchema())
	prepared := db.Begin("coordinator")
	prepared.Insert(tab, kv(1, "two-phase"))
	if err := db.Prepare(prepared, 7); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("u")
	tx.Insert(tab, kv(2, "between"))
	commit(t, db, tx)
	between := db.LastCommitTS()
	if _, err := db.CommitPrepared(prepared); err != nil {
		t.Fatal(err)
	}
	after := db.LastCommitTS()
	db.Close()

	for _, c := range []struct {
		target int64
		want   string
	}{{between, "[2=between]"}, {after, "[1=two-phase 2=between]"}} {
		dstDir := filepath.Join(t.TempDir(), "restored")
		if err := RestoreToTime(srcDir, dstDir, c.target); err != nil {
			t.Fatalf("restore to %d: %v", c.target, err)
		}
		rdb := openDBAt(t, dstDir)
		if got := fmt.Sprint(tableState(t, rdb, "t")); got != c.want {
			t.Fatalf("restore to %d: state %s, want %s", c.target, got, c.want)
		}
		if n := len(rdb.PreparedTxs()); n != 0 {
			t.Fatalf("restore to %d: %d transactions in doubt", c.target, n)
		}
	}
}

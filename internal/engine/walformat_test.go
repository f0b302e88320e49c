package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	tab.Scan(func(_ []byte, r sqltypes.Row) bool {
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
	prevEnd := db.log.Size()
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
	fullEnd := db.log.Size()
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
		if n := len(cdb.obs.Events().RecentOfType(obs.EventWALTornTail, 10)); n != wantTorn {
			t.Fatalf("cut at %d: %d torn-tail events, want %d", cut, n, wantTorn)
		}
		if !whole && cdb.log.Size() != prevEnd {
			t.Fatalf("cut at %d: log resumes at %d, want %d", cut, cdb.log.Size(), prevEnd)
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
// its checkpoint wrote): Open must fail with wal.ErrFormat{1, 3} before
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

// TestOpenRefusesPrepareRecord: a PREPARE record was written only by a
// shard of a multi-shard database, whose transactions' fate lived in a
// coordinator's decision log. Redo that meets one must fail Open, name the
// record's LSN, and leave every file as it was.
func TestOpenRefusesPrepareRecord(t *testing.T) {
	dir := t.TempDir()
	db := openDBAt(t, dir)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "committed"))
	commit(t, db, tx)
	db.Close()

	log, err := wal.Open(filepath.Join(dir, walFileName), wal.SyncFull)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := log.AppendBatch([]wal.Record{
		{Type: wal.RecInsert, TxID: 9, Payload: wal.EncodeDML(wal.RecInsert, wal.DMLPayload{TableID: tab.ID(), Key: tab.KeyFor(kv(2, "")), After: kv(2, "prepared")})},
		{Type: wal.RecPrepare, TxID: 9, Payload: []byte{7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	before := fileDigests(t, dir)
	if db, err := Open(Options{Dir: dir}); err == nil {
		db.Close()
		t.Fatal("Open replayed a log holding a PREPARE record")
	} else if want := fmt.Sprintf("PREPARE record at LSN %d", lsn); !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want an error naming %q", err, want)
	}
	if after := fileDigests(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("failed Open changed the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// fileDigests maps every file under dir to its SHA-256.
func fileDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		sum := sha256.Sum256(b)
		out[path] = hex.EncodeToString(sum[:])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// TestIncarnationLivesInTheLogHeader: a chain's incarnation is its log's
// create time. A copy of the directory taken the moment Open created it —
// the crash point that could leave a log beside an empty or missing
// createtime file — reopens as the same incarnation, and so does a later
// copy, on which a digest issued before it checks out; incarnation_assigned
// fires once per chain Open creates and never on a reopen.
func TestIncarnationLivesInTheLogHeader(t *testing.T) {
	for _, shards := range []int{1, 3} {
		base := t.TempDir()
		open := func(dir string) (*DB, int) {
			t.Helper()
			reg := obs.NewRegistry()
			db, err := Open(Options{Dir: dir, Name: "inc", Shards: shards, Sync: wal.SyncFull, Obs: reg, Clock: logicalClock()})
			if err != nil {
				t.Fatal(err)
			}
			return db, len(reg.Events().RecentOfType(obs.EventIncarnation, 0))
		}
		incarnations := func(db *DB) []int64 {
			var out []int64
			for i := range db.NumShards() {
				out = append(out, db.Shard(i).Incarnation())
			}
			return out
		}
		dir, early, late := filepath.Join(base, "live"), filepath.Join(base, "early"), filepath.Join(base, "late")
		db, assigned := open(dir)
		if assigned != shards {
			t.Fatalf("%d shards: %d incarnation_assigned events at creation, want one per chain", shards, assigned)
		}
		copyTree(t, dir, early)
		want := incarnations(db)
		loadAccounts(t, db, mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable), 20)
		var digests []Digest
		for i := range shards {
			d, err := db.Shard(i).GenerateDigest()
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, d)
		}
		copyTree(t, dir, late)
		db.Close()

		for _, img := range []string{early, late} {
			r, assigned := open(img)
			if assigned != 0 {
				t.Errorf("%d shards, %s: reopen assigned %d incarnations", shards, filepath.Base(img), assigned)
			}
			if got := incarnations(r); !slices.Equal(got, want) {
				t.Errorf("%d shards, %s: reopened as incarnations %v, created as %v", shards, filepath.Base(img), got, want)
			}
			if img == late {
				for i, d := range digests {
					if err := r.Shard(i).CheckDigest(d); err != nil {
						t.Errorf("%d shards: shard %d's digest on the reopened copy: %v", shards, i, err)
					}
				}
			}
			r.Close()
		}
	}
}

// crossShardImage commits n cross-shard transactions on a fresh 2-shard
// database under SyncFull, transaction i inserting keys[i][0] on shard 0
// and keys[i][1] on shard 1, and returns a copy of the directory taken
// right after the last decision was logged, before its participants
// committed.
func crossShardImage(t *testing.T, n int) (img string, keys [][2]string) {
	t.Helper()
	base := t.TempDir()
	dir, img := filepath.Join(base, "live"), filepath.Join(base, "img")
	s, err := Open(Options{Dir: dir, Name: "bank", Shards: 2, Sync: wal.SyncFull, LockTimeout: time.Second, Clock: logicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	var k [2]string
	for i := 0; len(keys) < n; i++ {
		name := fmt.Sprintf("x-%04d", i)
		if sh := st.ShardOf(sqltypes.NewNVarChar(name)); k[sh] == "" {
			k[sh] = name
		}
		if k[0] != "" && k[1] != "" {
			keys, k = append(keys, k), [2]string{}
		}
	}
	for i, k := range keys {
		if i == n-1 {
			s.hookAfterDecision = func() { copyTree(t, dir, img) }
		}
		tx := s.Begin("teller")
		for _, name := range k {
			if err := tx.Insert(st, acct(name, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return img, keys
}

func openImage(img string) (*DB, error) {
	return Open(Options{Dir: img, Name: "bank", Shards: 2, LockTimeout: time.Second, Clock: logicalClock()})
}

// present reports, per key, whether the reopened database holds the row.
func present(t *testing.T, s *DB, keys ...string) []bool {
	t.Helper()
	st, err := s.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin("reader")
	defer tx.Rollback()
	var out []bool
	for _, k := range keys {
		_, ok, err := tx.Get(st, sqltypes.NewNVarChar(k))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ok)
	}
	return out
}

// TestDecisionLogTornLastFrameIsPresumedAbort: a crash that cut the last
// decision frame mid-way left a decision that was never acknowledged. Open
// cuts the frame like any torn WAL tail, and that gid is presumed aborted
// on every shard while the decision before it stands.
func TestDecisionLogTornLastFrameIsPresumedAbort(t *testing.T) {
	img, keys := crossShardImage(t, 2)
	path := filepath.Join(img, decisionLogName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := int64(len(b)-wal.HeaderLen) / 2 // two frames of the same size
	if err := os.WriteFile(path, b[:len(b)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := openImage(img)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := present(t, s, keys[0][0], keys[0][1], keys[1][0], keys[1][1]); !slices.Equal(got, []bool{true, true, false, false}) {
		t.Fatalf("rows present after a torn last decision = %v, want the first transaction only", got)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != wal.HeaderLen+first {
		t.Fatalf("decision log after open: %v, %v; want the torn frame cut at %d", st, err, wal.HeaderLen+first)
	}
	// The aborted gid is not handed out again: a new cross-shard commit
	// takes a fresh one and reaches both shards.
	tx := s.Begin("teller")
	st, _ := s.LedgerTable("accounts")
	for _, name := range keys[1] {
		if err := tx.Insert(st, acct(name, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := present(t, s, keys[1][0], keys[1][1]); !slices.Equal(got, []bool{true, true}) {
		t.Fatalf("rows of the retried transaction = %v", got)
	}
}

// TestDecisionLogDamageFailsOpenUntouched: a flipped byte in a decision
// frame with another decision after it is damage to acknowledged history,
// not a tear: Open fails with wal.ErrCorrupt rather than read the frame as
// some other gid's decision, and leaves the file as it found it.
func TestDecisionLogDamageFailsOpenUntouched(t *testing.T) {
	img, _ := crossShardImage(t, 2)
	path := filepath.Join(img, decisionLogName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[wal.HeaderLen+8] ^= 0x02 // the first frame's gid
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := openImage(img); !errors.Is(err, wal.ErrCorrupt) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("Open over a damaged decision = %v, want wal.ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, b) {
		t.Fatal("the refused Open changed the decision log")
	}
}

// TestParentLayoutIsRefusedUntouched: a directory of the build before the
// log header carried the create time — a one-shard database's version-2
// wal.log beside its createtime file, a multi-shard database's text
// 2pc.log — fails to open with wal.ErrFormat, and every file stays as it
// was; no file is added.
func TestParentLayoutIsRefusedUntouched(t *testing.T) {
	v2, err := os.ReadFile("../wal/testdata/wal_v2.golden.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		shards int
		files  map[string][]byte
		have   int
	}{
		{"one shard, version-2 log", 1, map[string][]byte{"wal.log": v2, "createtime": []byte("1700000000000000001")}, 2},
		{"text decision log", 2, map[string][]byte{decisionLogName: []byte("C 1\nC 2\n")}, 1},
	} {
		dir := t.TempDir()
		for name, b := range c.files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var ferr wal.ErrFormat
		s, err := Open(Options{Dir: dir, Shards: c.shards})
		if !errors.As(err, &ferr) || ferr != (wal.ErrFormat{Have: c.have, Want: wal.FormatVersion}) {
			if s != nil {
				s.Close()
			}
			t.Fatalf("%s: Open = %v, want ErrFormat{%d, %d}", c.name, err, c.have, wal.FormatVersion)
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != len(c.files) {
			t.Fatalf("%s: the refused Open left %d entries, want %d", c.name, len(entries), len(c.files))
		}
		for name, b := range c.files {
			if after, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(after, b) {
				t.Fatalf("%s: the refused Open changed %s", c.name, name)
			}
		}
	}
}

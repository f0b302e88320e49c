package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/wal"
)

// TestIncarnationLivesInTheLogHeader: the incarnation is the log's create
// time. A copy of the directory taken the moment Open created it — the
// crash point that could leave a log beside an empty or missing createtime
// file — reopens as the same incarnation, and so does a later copy, on
// which a digest issued before it verifies; incarnation_assigned fires
// once, when Open creates the log, and never on a reopen.
func TestIncarnationLivesInTheLogHeader(t *testing.T) {
	base := t.TempDir()
	open := func(dir string) (*DB, int) {
		t.Helper()
		reg := obs.NewRegistry()
		db, err := Open(Options{Dir: dir, Name: "inc", Sync: wal.SyncFull, Obs: reg, Clock: logicalClock()})
		if err != nil {
			t.Fatal(err)
		}
		return db, len(reg.Events().RecentOfType(obs.EventIncarnation, 0))
	}
	dir, early, late := filepath.Join(base, "live"), filepath.Join(base, "early"), filepath.Join(base, "late")
	db, assigned := open(dir)
	if assigned != 1 {
		t.Fatalf("%d incarnation_assigned events at creation, want one", assigned)
	}
	copyTree(t, dir, early)
	want := db.Incarnation()
	loadAccounts(t, db, mustLedgerTable(t, db, "accounts", engine.LedgerUpdateable), 20)
	d, err := db.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	copyTree(t, dir, late)
	db.Close()

	for _, img := range []string{early, late} {
		r, assigned := open(img)
		if assigned != 0 {
			t.Errorf("%s: reopen assigned %d incarnations", filepath.Base(img), assigned)
		}
		if got := r.Incarnation(); got != want {
			t.Errorf("%s: reopened as incarnation %d, created as %d", filepath.Base(img), got, want)
		}
		if img == late {
			verifyOK(t, r, []Digest{d})
		}
		r.Close()
	}
}

// copyTree copies a directory tree (the crash image).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParentLayoutIsRefusedUntouched: a directory of the build before the
// log header carried the create time — a version-2 wal.log beside its
// createtime file — fails to open with wal.ErrFormat, and every file stays
// as it was; no file is added.
func TestParentLayoutIsRefusedUntouched(t *testing.T) {
	v2, err := os.ReadFile("../wal/testdata/wal_v2.golden.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		files map[string][]byte
		have  int
	}{
		{"version-2 log", map[string][]byte{"wal.log": v2, "createtime": []byte("1700000000000000001")}, 2},
	} {
		dir := t.TempDir()
		for name, b := range c.files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var ferr wal.ErrFormat
		s, err := Open(Options{Dir: dir})
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

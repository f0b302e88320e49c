package main

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cliChildEnv, when set, makes the test binary run the CLI's main on its
// own arguments instead of the tests: how a test drives the CLI as a
// process, exit status included.
const cliChildEnv = "SQLLEDGER_CLI_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(cliChildEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli runs the CLI with args and returns its combined output and whether
// it exited 0.
func cli(t *testing.T, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return string(out), err == nil
}

// TestNameOpensRenamedCopy: a database's name is its directory's base name
// unless -name sets it, and its digests carry it, so a copy under another
// base name is another database to a digest of the original, and the same
// one when -name gives the original name.
func TestNameOpensRenamedCopy(t *testing.T) {
	root := t.TempDir()
	bank := filepath.Join(root, "bank")
	for _, args := range [][]string{
		{"create", "accounts", "name:NVARCHAR:key", "balance:BIGINT"},
		{"insert", "accounts", "nick", "100", ";", "ana", "50"},
		{"checkpoint"},
	} {
		if out, ok := cli(t, append([]string{"-db", bank}, args...)...); !ok {
			t.Fatalf("%v: %s", args, out)
		}
	}
	digest, ok := cli(t, "-db", bank, "digest")
	if !ok {
		t.Fatalf("digest: %s", digest)
	}
	digestFile := filepath.Join(root, "digest.json")
	if err := os.WriteFile(digestFile, []byte(digest), 0o644); err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(root, "moved")
	err := filepath.WalkDir(bank, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(moved, strings.TrimPrefix(path, bank))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	if out, ok := cli(t, "-db", moved, "verify", digestFile); ok || !strings.Contains(out, `names database "bank"`) {
		t.Fatalf("the original's digest verified the copy under its own base name (exit 0: %v): %s", ok, out)
	}
	out, ok := cli(t, "-db", moved, "-name", "bank", "select", "accounts")
	if !ok || !strings.Contains(out, "ana") || !strings.Contains(out, "nick") {
		t.Fatalf("select on the copy with -name bank (exit 0: %v): %s", ok, out)
	}
	if out, ok := cli(t, "-db", moved, "-name", "bank", "verify", digestFile); !ok || !strings.Contains(out, "-- OK") {
		t.Fatalf("verify on the copy with -name bank (exit 0: %v): %s", ok, out)
	}
}

// TestRefusesMultiShardDirectory: the CLI exits non-zero on a directory
// holding a multi-shard database, and leaves it as it was.
func TestRefusesMultiShardDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bank")
	if err := os.MkdirAll(filepath.Join(dir, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if out, ok := cli(t, "-db", dir, "select", "accounts"); ok || !strings.Contains(out, "shard-000") {
		t.Fatalf("select on a multi-shard directory (exit 0: %v): %s", ok, out)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("the refused directory holds %d entries (%v), want shard-000 alone", len(ents), err)
	}
}

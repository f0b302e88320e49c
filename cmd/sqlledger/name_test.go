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
// unless -name sets it, and its digests carry it, so once a super-block has
// signed one, a copy under another base name opens only when -name gives
// the original.
func TestNameOpensRenamedCopy(t *testing.T) {
	root := t.TempDir()
	bank := filepath.Join(root, "bank")
	for _, args := range [][]string{
		{"create", "accounts", "name:NVARCHAR:key", "balance:BIGINT"},
		{"insert", "accounts", "nick", "100", ";", "ana", "50"},
		{"checkpoint"},
		{"superblock"}, // a signed watermark, which Open checks the chain against
	} {
		if out, ok := cli(t, append([]string{"-db", bank}, args...)...); !ok {
			t.Fatalf("%v: %s", args, out)
		}
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

	if out, ok := cli(t, "-db", moved, "select", "accounts"); ok || !strings.Contains(out, `names database "bank"`) {
		t.Fatalf("the copy opened under its own base name (exit 0: %v): %s", ok, out)
	}
	out, ok := cli(t, "-db", moved, "-name", "bank", "select", "accounts")
	if !ok || !strings.Contains(out, "ana") || !strings.Contains(out, "nick") {
		t.Fatalf("select on the copy with -name bank (exit 0: %v): %s", ok, out)
	}
	if out, ok := cli(t, "-db", moved, "-name", "bank", "verify"); !ok || !strings.Contains(out, "-- OK") {
		t.Fatalf("verify on the copy with -name bank (exit 0: %v): %s", ok, out)
	}
}

//go:build unix

package sqlledger_test

import (
	"bufio"
	"bytes"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqlledger"
)

// killChildEnv, when set, turns TestKillNineRecovers into the child: it
// names the database directory the child writes until it is killed.
const killChildEnv = "SQLLEDGER_KILL9_DIR"

// TestKillNineRecovers SIGKILLs a process in the middle of a durable
// commit loop and restarts the database from whatever the kill left: the
// WAL's torn tail, a checkpoint cut short. Every transaction whose Commit
// returned before the kill must be there after the restart, and the
// recovered ledger must verify green against a digest taken after it.
func TestKillNineRecovers(t *testing.T) {
	if dir := os.Getenv(killChildEnv); dir != "" {
		runKillChild(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillNineRecovers$")
	cmd.Env = append(os.Environ(), killChildEnv+"="+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	// Kill at a varying point of the 50-commit checkpoint cycle, then keep
	// reading: acknowledgements already in the pipe count too.
	killAt := 200 + rand.Intn(100)
	var acked []int64
	killed := false
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		id, err := strconv.ParseInt(strings.TrimPrefix(lines.Text(), "ack "), 10, 64)
		if err != nil {
			continue // a line the kill cut short was never acknowledged
		}
		acked = append(acked, id)
		if !killed && len(acked) >= killAt {
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			killed = true
		}
	}
	cmd.Wait()
	if !killed {
		t.Fatalf("child exited after %d acknowledged commits, want >= %d:\n%s", len(acked), killAt, stderr.String())
	}

	db, err := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "kill9", Sync: sqlledger.SyncFull})
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	defer db.Close()
	lt, err := db.LedgerTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("check")
	for _, id := range acked {
		if _, ok, err := tx.Get(lt, sqlledger.BigInt(id)); err != nil || !ok {
			t.Fatalf("acknowledged row %d lost after SIGKILL (ok=%v, err=%v)", id, ok, err)
		}
	}
	tx.Rollback()
	d, err := db.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("verification after SIGKILL failed:\n%s", rep)
	}
	t.Logf("killed after %d acknowledged commits; all present, ledger verifies", len(acked))
}

// runKillChild commits single-row transactions under SyncFull, printing
// each key only after its Commit returned and checkpointing every 50
// commits, until the parent kills it. The deadline only stops a child
// whose parent died first.
func runKillChild(t *testing.T, dir string) {
	db, err := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "kill9", Sync: sqlledger.SyncFull})
	if err != nil {
		t.Fatal(err)
	}
	lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for id := int64(1); time.Now().Before(deadline); id++ {
		tx := db.Begin("writer")
		if err := tx.Insert(lt, fig8Row(id)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		os.Stdout.WriteString("ack " + strconv.FormatInt(id, 10) + "\n")
		if id%50 == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatal("parent never killed the child")
}

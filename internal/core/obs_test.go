package core

import (
	"strings"
	"testing"

	"sqlledger/internal/blobstore"
	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
)

// End-to-end check of the observability layer: drive commits, a digest
// upload and a verification through a ledger database, then assert that
// the headline series are populated both in the snapshot API and in the
// Prometheus text rendering.
func TestObservabilityEndToEnd(t *testing.T) {
	l := openTestLedger(t, 2)            // tiny blocks so block closes happen
	l.Obs().Traces().SetSlowThreshold(0) // retain every trace
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)

	const commits = 6
	for i := 0; i < commits; i++ {
		tx := l.Begin("alice")
		if err := tx.Insert(lt, account(string(rune('a'+i)), int64(i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	store := blobstore.NewMemory()
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}
	digests, err := l.StoredDigests(store)
	if err != nil {
		t.Fatal(err)
	}
	verifyOK(t, l, digests)

	snap := l.Snapshot()

	// Every engine commit went through the group committer, in at most
	// as many write groups.
	engineCommits := snap.CounterValue(obs.EngineCommitTotal)
	if engineCommits < commits {
		t.Fatalf("commit counter = %d, want >= %d", engineCommits, commits)
	}
	if got := snap.CounterValue(obs.WALGroupCommits); got != engineCommits {
		t.Fatalf("group committer saw %d commits, the engine %d", got, engineCommits)
	}
	if got := snap.CounterValue(obs.WALGroups); got < 1 || got > engineCommits {
		t.Fatalf("%d write groups for %d commits", got, engineCommits)
	}

	if n := snap.CounterValue(obs.BlocksClosedTotal); n == 0 {
		t.Fatal("no blocks closed despite block size 2")
	}
	if n := snap.CounterValue(obs.DigestTotal); n == 0 {
		t.Fatal("digest counter not incremented")
	}
	if n := snap.CounterValue(obs.DigestUploadTotal); n != 1 {
		t.Fatalf("digest uploads = %d, want 1", n)
	}
	if n := snap.CounterValue(obs.VerifyTotal); n != 1 {
		t.Fatalf("verifications = %d, want 1", n)
	}
	if n := snap.CounterValue(obs.VerifyIssuesTotal); n != 0 {
		t.Fatalf("verify issues = %d, want 0", n)
	}
	if n := snap.CounterValue(obs.BlobstoreOpsTotal); n == 0 {
		t.Fatal("blobstore ops not counted")
	}
	// Commit stages and verify phases must have one histogram series per
	// label value, all populated.
	for _, stage := range []string{"sequence", "publish", "apply"} {
		h, ok := snap.Histogram(obs.CommitStageSeconds, obs.L("stage", stage))
		if !ok || h.Count == 0 {
			t.Fatalf("commit stage %q not observed (ok=%v)", stage, ok)
		}
	}
	for _, phase := range []string{"chain", "row_versions", "indexes", "views", "total"} {
		h, ok := snap.Histogram(obs.VerifyPhaseSeconds, obs.L("phase", phase))
		if !ok || h.Count == 0 {
			t.Fatalf("verify phase %q not observed (ok=%v)", phase, ok)
		}
	}

	// The Prometheus rendering must expose the acceptance-criteria series.
	var sb strings.Builder
	if err := l.Obs().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		obs.WALFsyncTotal,
		obs.CommitStageSeconds,
		obs.VerifyPhaseSeconds,
		`stage="sequence"`,
		`phase="total"`,
		"# TYPE " + obs.WALFsyncTotal + " counter",
		"# TYPE " + obs.CommitStageSeconds + " histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics text missing %q", want)
		}
	}

	// Root traces of block closes, digest generation and verification
	// must be in the ring, beside the transactions'.
	seen := map[string]bool{}
	for _, tr := range l.Obs().Traces().Recent(0) {
		seen[tr.Name] = true
	}
	for _, want := range []string{"tx", "close_block", "generate_digest", "verify"} {
		if !seen[want] {
			t.Fatalf("trace %q not retained (got %v)", want, seen)
		}
	}
}

// A disabled registry must stay empty while the database works normally.
func TestObservabilityDisabled(t *testing.T) {
	l, err := Open(Options{
		Dir: t.TempDir(), Name: "test", BlockSize: 4, Obs: obs.Disabled(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	tx := l.Begin("alice")
	if err := tx.Insert(lt, account("a", 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	snap := l.Snapshot()
	if n := snap.CounterValue(obs.EngineCommitTotal); n != 0 {
		t.Fatalf("disabled registry recorded %d commits", n)
	}
	if n := snap.CounterValue(obs.WALGroupCommits); n != 0 {
		t.Fatalf("disabled registry recorded %d group commits", n)
	}
}

package core

import (
	"errors"
	"testing"
	"time"

	"sqlledger/internal/blobstore"
	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

func TestUploadAndVerifyFromStore(t *testing.T) {
	l := openTestLedger(t, 3)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	store := blobstore.NewMemory()
	u := NewDigestUploader(l, store)

	for i := 0; i < 5; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
		if _, err := u.UploadOnce(); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	if u.Uploads() != 5 {
		t.Fatalf("uploads = %d", u.Uploads())
	}
	digests, err := l.StoredDigests(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) == 0 {
		t.Fatal("no digests stored")
	}
	rep, err := l.VerifyFromStore(store, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("verify from store:\n%s", rep)
	}
	// Tamper, then the stored digests must catch it.
	key := firstKeyOf(t, lt.Table())
	l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(123456)
		return r
	}, true)
	rep, err = l.VerifyFromStore(store, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("tamper not detected from stored digests")
	}
}

func TestUploadIdempotentPerBlock(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	store := blobstore.NewMemory()
	tx := l.Begin("u")
	tx.Insert(lt, account("a", 1))
	mustCommit(t, tx)
	d1, err := l.UploadDigest(store)
	if err != nil {
		t.Fatal(err)
	}
	// No new transactions: same block digest, no immutability violation.
	d2, err := l.UploadDigest(store)
	if err != nil {
		t.Fatal(err)
	}
	if d1.BlockID != d2.BlockID || d1.Hash != d2.Hash {
		t.Fatalf("idempotent upload changed digest: %+v vs %+v", d1, d2)
	}
	if store.Len() != 1 {
		t.Fatalf("blobs = %d", store.Len())
	}
}

func TestUploadDetectsForkAgainstImmutableStore(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	store := blobstore.NewMemory()
	tx := l.Begin("u")
	tx.Insert(lt, account("a", 1))
	mustCommit(t, tx)
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}
	// Rewrite history: tamper with the closed block so a regenerated
	// digest for the same block id differs from the stored one.
	var blockKey []byte
	l.shards[0].sysBlocks.Scan(func(k []byte, _ sqltypes.Row) bool {
		blockKey = append([]byte(nil), k...)
		return false
	})
	l.Engine().TamperUpdateRow(l.shards[0].sysBlocks, blockKey, func(r sqltypes.Row) sqltypes.Row {
		b := append([]byte(nil), r[2].Bytes...)
		b[0] ^= 1
		r[2] = sqltypes.NewBinary(b)
		return r
	}, true)
	// Persist the tampered state (checkpoint snapshots storage as-is) and
	// reopen so the in-memory chain head is recomputed from the tampered
	// block row.
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dir := l.shards[0].edb.Dir()
	l.Close()
	l2 := openLedgerAt(t, dir, 100)
	if _, err := l2.UploadDigest(store); err == nil {
		t.Fatal("forked digest upload not rejected against immutable store")
	}
}

func TestPeriodicUploader(t *testing.T) {
	l := openTestLedger(t, 100)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	store := blobstore.NewMemory()
	u := NewDigestUploader(l, store)
	u.Start(5 * time.Millisecond)
	defer u.Stop()
	for i := 0; i < 5; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
		time.Sleep(10 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for u.Uploads() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	u.Stop()
	if u.Uploads() == 0 {
		t.Fatalf("uploader made no uploads; errs=%v", u.Errs())
	}
	for _, err := range u.Errs() {
		t.Fatalf("uploader error: %v", err)
	}
}

func TestReplicaLagGating(t *testing.T) {
	// A small, constant lag: digest generation waits it out.
	lag := 20 * time.Millisecond
	l, err := Open(Options{
		Dir: t.TempDir(), Name: "geo", BlockSize: 100,
		ReplicaLag:      func() time.Duration { return lag },
		MaxReplicaDelay: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lt, err := l.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("u")
	tx.Insert(lt, account("a", 1))
	mustCommit(t, tx)
	start := time.Now()
	if _, err := l.GenerateDigest(); err != nil {
		t.Fatalf("digest with small lag: %v", err)
	}
	if time.Since(start) < lag/2 {
		t.Fatal("digest did not wait for replication")
	}
	// A hopeless lag: digest generation fails with ErrReplicationBehind.
	lag = time.Hour
	tx = l.Begin("u")
	tx.Insert(lt, account("b", 2))
	mustCommit(t, tx)
	l.opts.MaxReplicaDelay = 30 * time.Millisecond
	if _, err := l.GenerateDigest(); !errors.Is(err, ErrReplicationBehind) {
		t.Fatalf("expected ErrReplicationBehind, got %v", err)
	}
}

func TestRestoreCreatesNewIncarnationAndOldDigestsStillVerify(t *testing.T) {
	srcDir := t.TempDir()
	l := openLedgerAt(t, srcDir, 3)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	store := blobstore.NewMemory()

	// Phase 1: some data, digest uploaded.
	for i := 0; i < 4; i++ {
		tx := l.Begin("u")
		tx.Insert(lt, account(acctName(i), int64(i)))
		mustCommit(t, tx)
	}
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}
	cutoff := l.Engine().LastCommitTS()
	oldIncarnation := l.Incarnation()

	// Phase 2: the "mistake" that motivates the restore.
	tx := l.Begin("u")
	tx.Insert(lt, account("mistake", -1))
	mustCommit(t, tx)
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Restore to before the mistake.
	dstDir := t.TempDir() + "/restored"
	if err := RestoreToTime(srcDir, dstDir, cutoff); err != nil {
		t.Fatal(err)
	}
	r := openLedgerAt(t, dstDir, 3)
	if r.Incarnation() == oldIncarnation {
		t.Fatal("restore did not start a new incarnation")
	}
	rlt, err := r.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if rlt.Table().RowCount() != 4 {
		t.Fatalf("restored rows = %d", rlt.Table().RowCount())
	}
	// Verification with ALL stored digests (across incarnations): digests
	// covering surviving blocks verify; the digest past the restore point
	// is reported as a warning, not tampering (§3.6).
	rep, err := r.VerifyFromStore(store, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("restored database should verify:\n%s", rep)
	}
	warned := false
	for _, i := range rep.Issues {
		if i.Warning {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("expected a warning for the digest past the restore point:\n%s", rep)
	}
	// New incarnation keeps uploading under its own namespace.
	tx = r.Begin("u")
	tx.Insert(rlt, account("post-restore", 9))
	mustCommit(t, tx)
	if _, err := r.UploadDigest(store); err != nil {
		t.Fatalf("upload after restore: %v", err)
	}
	names, _ := store.List("test/")
	if len(names) < 3 {
		t.Fatalf("expected digests across incarnations, got %v", names)
	}
}

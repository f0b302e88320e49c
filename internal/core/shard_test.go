package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

func openShards(t *testing.T, dir string, shards int) *DB {
	t.Helper()
	s, err := Open(Options{
		Dir: dir, Name: "bank", Shards: shards,
		LockTimeout: 5 * time.Second,
		Clock:       logicalClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func acct(name string, bal int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewNVarChar(name), sqltypes.NewBigInt(bal)}
}

// loadAccounts inserts n accounts named acct-0000..acct-n in one
// transaction per chunk of 50.
func loadAccounts(t *testing.T, s *DB, st *LedgerTable, n int) {
	t.Helper()
	for lo := 0; lo < n; lo += 50 {
		tx := s.Begin("loader")
		for i := lo; i < lo+50 && i < n; i++ {
			if err := tx.Insert(st, acct(fmt.Sprintf("acct-%04d", i), int64(100+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyDigestOfAnotherDatabase: a digest renamed to another
// database, moved past the chain head and given another incarnation fails
// invariant 1 with an issue naming that database, at one shard and at
// four, where no shard bears its name; a run over a range of blocks that
// leaves the digest out passes at both.
func TestVerifyDigestOfAnotherDatabase(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			s := openShards(t, t.TempDir(), shards)
			defer s.Close()
			st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
			if err != nil {
				t.Fatal(err)
			}
			loadAccounts(t, s, st, 20)
			d, err := s.Shard(0).GenerateDigest()
			if err != nil {
				t.Fatal(err)
			}
			d.DatabaseName, d.BlockID, d.Incarnation = "other", d.BlockID+100, d.Incarnation+1
			rep, err := s.Verify([]Digest{d}, VerifyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Ok() || !strings.Contains(rep.String(), `[TAMPER inv1] digest for block`) ||
				!strings.Contains(rep.String(), `names database "other"`) {
				t.Fatalf("report of a digest naming another database:\n%s", rep)
			}
			// A ranged run checks only the digests inside its range.
			rep, err = s.Verify([]Digest{d}, VerifyOptions{Blocks: &BlockRange{From: 0, To: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("ranged run given a digest outside its range:\n%s", rep)
			}
		})
	}
}

// TestMultiShardBasicOps exercises routed DML, point reads, cross-shard
// scans and the routing invariants on a 4-shard database.
func TestMultiShardBasicOps(t *testing.T) {
	s := openShards(t, t.TempDir(), 4)
	defer s.Close()
	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	loadAccounts(t, s, st, n)

	// Every shard should own a nonempty slice of a 200-row FNV partition.
	perShard := make([]int, s.NumShards())
	for i := 0; i < n; i++ {
		perShard[st.ShardOf(sqltypes.NewNVarChar(fmt.Sprintf("acct-%04d", i)))]++
	}
	for i, c := range perShard {
		if c == 0 {
			t.Fatalf("shard %d owns no rows of a %d-row partition", i, n)
		}
	}

	// Point reads route to the owning shard and see every row.
	tx := s.Begin("reader")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("acct-%04d", i)
		row, ok, err := tx.Get(st, sqltypes.NewNVarChar(name))
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", name, ok, err)
		}
		if row[1].Int() != int64(100+i) {
			t.Fatalf("Get(%s): balance %d", name, row[1].Int())
		}
	}
	// A sharded scan visits all rows exactly once.
	seen := 0
	if err := tx.Scan(st, func(sqltypes.Row) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scan saw %d rows, want %d", seen, n)
	}
	tx.Rollback()

	// Update + delete route like inserts; a cross-shard read-back agrees.
	tx = s.Begin("teller")
	if err := tx.Update(st, acct("acct-0000", 9_999)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(st, sqltypes.NewNVarChar("acct-0001")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin("reader")
	row, ok, _ := tx.Get(st, sqltypes.NewNVarChar("acct-0000"))
	if !ok || row[1].Int() != 9_999 {
		t.Fatalf("updated row: ok=%v row=%v", ok, row)
	}
	if _, ok, _ := tx.Get(st, sqltypes.NewNVarChar("acct-0001")); ok {
		t.Fatal("deleted row still visible")
	}
	tx.Rollback()
}

// TestMultiShardSuperBlock closes super-blocks, checks their chaining,
// signature and per-shard proofs, and runs the full sharded verification.
func TestMultiShardSuperBlock(t *testing.T) {
	dir := t.TempDir()
	s := openShards(t, dir, 3)
	defer s.Close()
	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	loadAccounts(t, s, st, 120)

	sb1, err := s.CloseSuperBlock()
	if err != nil {
		t.Fatal(err)
	}
	if sb1.SeqNo != 1 || sb1.Shards != 3 || len(sb1.Heads) != 3 {
		t.Fatalf("super-block 1: %+v", sb1)
	}
	if err := CheckSuperBlock(sb1, s.PublicKey()); err != nil {
		t.Fatal(err)
	}
	// JSON round trip preserves the signed identity.
	rt, err := ParseSuperBlock(sb1.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSuperBlock(rt, s.PublicKey()); err != nil {
		t.Fatalf("round-tripped super-block: %v", err)
	}
	// A tampered head must break the root check or the signature.
	bad := *rt
	bad.Heads = append([]ShardHead(nil), rt.Heads...)
	bad.Heads[1].Digest.Hash = strings.Repeat("00", 32)
	if err := CheckSuperBlock(&bad, s.PublicKey()); err == nil {
		t.Fatal("tampered head passed CheckSuperBlock")
	}
	// Per-shard proofs verify under the super-root.
	root, _ := sb1.Hash(), sb1.Root
	_ = root
	for i := 0; i < 3; i++ {
		p, err := ShardProof(sb1, i)
		if err != nil {
			t.Fatal(err)
		}
		r, err := parseHashT(t, sb1.Root)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Verify(r, shardHeadLeaf(sb1.Heads[i])) {
			t.Fatalf("shard %d proof failed", i)
		}
	}

	// More writes, second super-block: chained to the first.
	loadAccounts2 := func(base int) {
		tx := s.Begin("loader")
		for i := 0; i < 30; i++ {
			if err := tx.Insert(st, acct(fmt.Sprintf("more-%d-%04d", base, i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	loadAccounts2(1)
	sb2, err := s.CloseSuperBlock()
	if err != nil {
		t.Fatal(err)
	}
	if sb2.SeqNo != 2 || sb2.PreviousHash != sb1.Hash().String() {
		t.Fatalf("super-block 2 not chained: seq %d prev %s", sb2.SeqNo, sb2.PreviousHash)
	}

	// Full sharded verification against the latest super-block.
	rep, err := VerifySuperBlock(s, sb2, s.PublicKey(), VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("sharded verification failed:\n%s", rep)
	}

	// Reopen: watermark reconciles, last super-block is restored.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, Name: "bank", Shards: 3, Clock: logicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	last := s2.LastSuperBlock()
	if last == nil || last.SeqNo != 2 || last.Root != sb2.Root {
		t.Fatalf("watermark not restored: %+v", last)
	}
	// Data survived the reopen on every shard.
	tx := s2.Begin("reader")
	stR, err := s2.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if row, ok, _ := tx.Get(stR, sqltypes.NewNVarChar("acct-0042")); !ok || row[1].Int() != 142 {
		t.Fatalf("row lost across reopen: ok=%v row=%v", ok, row)
	}
	tx.Rollback()
}

func parseHashT(t *testing.T, hexs string) (h [32]byte, err error) {
	t.Helper()
	d := Digest{Hash: hexs}
	return d.BlockHash()
}

// TestMultiShardCrossShardAtomicity commits transactions spanning shards and
// checks both sides land (and roll back) together.
func TestMultiShardCrossShardAtomicity(t *testing.T) {
	s := openShards(t, t.TempDir(), 2)
	defer s.Close()
	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	// Find two names on different shards.
	a, b := "", ""
	for i := 0; a == "" || b == ""; i++ {
		name := fmt.Sprintf("acct-%04d", i)
		switch st.ShardOf(sqltypes.NewNVarChar(name)) {
		case 0:
			if a == "" {
				a = name
			}
		case 1:
			if b == "" {
				b = name
			}
		}
	}

	tx := s.Begin("teller")
	if err := tx.Insert(st, acct(a, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(st, acct(b, 20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Rollback discards both sides.
	tx = s.Begin("teller")
	if err := tx.Update(st, acct(a, 11)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(st, acct(b, 21)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin("reader")
	ra, _, _ := tx.Get(st, sqltypes.NewNVarChar(a))
	rb, _, _ := tx.Get(st, sqltypes.NewNVarChar(b))
	if ra[1].Int() != 10 || rb[1].Int() != 20 {
		t.Fatalf("rolled-back cross-shard tx leaked: %v %v", ra, rb)
	}
	tx.Rollback()

	// Ledger state is still fully verifiable.
	sb, err := s.CloseSuperBlock()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifySuperBlock(s, sb, s.PublicKey(), VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("verification after cross-shard txs:\n%s", rep)
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

// TestMultiShardTwoPhaseCommitCrash is the all-or-nothing crash matrix: a
// crash image captured between the two 2PC phases (all participants
// prepared, no durable decision) must recover with the transaction
// aborted everywhere; an image captured right after the decision log
// append must recover with it committed everywhere.
func TestMultiShardTwoPhaseCommitCrash(t *testing.T) {
	for _, tc := range []struct {
		name       string
		afterPhase string // "prepare" or "decision"
		wantRows   bool
	}{
		{"crash-before-decision-aborts", "prepare", false},
		{"crash-after-decision-commits", "decision", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			dir := filepath.Join(base, "live")
			img := filepath.Join(base, "img")
			s, err := Open(Options{
				Dir: dir, Name: "bank", Shards: 2,
				Sync:        wal.SyncFull, // decisions and prepares must be durable in the image
				LockTimeout: time.Second,
				Clock:       logicalClock(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
			if err != nil {
				t.Fatal(err)
			}
			// Make the pre-transaction state durable in its own right.
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			// Two rows on two different shards.
			a, b := "", ""
			for i := 0; a == "" || b == ""; i++ {
				name := fmt.Sprintf("x-%04d", i)
				if st.ShardOf(sqltypes.NewNVarChar(name)) == 0 {
					if a == "" {
						a = name
					}
				} else if b == "" {
					b = name
				}
			}

			hook := func() { copyTree(t, dir, img) }
			if tc.afterPhase == "prepare" {
				s.hookAfterPrepare = hook
			} else {
				s.hookAfterDecision = hook
			}
			tx := s.Begin("teller")
			if err := tx.Insert(st, acct(a, 1)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert(st, acct(b, 2)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// Recover the crash image. In-doubt transactions resolve at
			// open against the decision log (presumed abort without it).
			s2, err := Open(Options{
				Dir: img, Name: "bank", Shards: 2,
				LockTimeout: time.Second,
				Clock:       logicalClock(),
			})
			if err != nil {
				t.Fatalf("recover crash image: %v", err)
			}
			defer s2.Close()
			st2, err := s2.LedgerTable("accounts")
			if err != nil {
				t.Fatal(err)
			}
			rtx := s2.Begin("reader")
			_, okA, _ := rtx.Get(st2, sqltypes.NewNVarChar(a))
			_, okB, _ := rtx.Get(st2, sqltypes.NewNVarChar(b))
			rtx.Rollback()
			if okA != okB {
				t.Fatalf("atomicity broken across shards: shard0 present=%v shard1 present=%v", okA, okB)
			}
			if okA != tc.wantRows {
				t.Fatalf("crash after %s: rows present=%v, want %v", tc.afterPhase, okA, tc.wantRows)
			}

			// Either way the recovered database verifies end to end.
			sb, err := s2.CloseSuperBlock()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := VerifySuperBlock(s2, sb, s2.PublicKey(), VerifyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("recovered image fails verification:\n%s", rep)
			}
		})
	}
}

// TestMultiShardTamperLocalization is the tamper matrix of satellite 6: a
// row tampered in one shard must fail verification in exactly that shard
// — the others verify clean — and the super-block head check must flag
// the mismatched shard root once the tampered shard's chain diverges.
func TestMultiShardTamperLocalization(t *testing.T) {
	s := openShards(t, t.TempDir(), 3)
	defer s.Close()
	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	loadAccounts(t, s, st, 150)
	sb, err := s.CloseSuperBlock()
	if err != nil {
		t.Fatal(err)
	}

	// Pick a row on shard 1 and tamper with it via direct storage access.
	victim := ""
	for i := 0; victim == ""; i++ {
		name := fmt.Sprintf("acct-%04d", i)
		if st.ShardOf(sqltypes.NewNVarChar(name)) == 1 {
			victim = name
		}
	}
	shard := s.Shard(1)
	key := sqltypes.EncodeKey(nil, sqltypes.NewNVarChar(victim))
	if err := shard.Engine().TamperUpdateRow(st.parts[1].Table(), key, func(r sqltypes.Row) sqltypes.Row {
		out := r.Clone()
		out[1] = sqltypes.NewBigInt(1_000_000)
		return out
	}, true); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifySuperBlock(s, sb, s.PublicKey(), VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("tampered database passed sharded verification")
	}
	for _, sr := range rep.Shards {
		tamperedShard := sr.Shard == 1
		failed := sr.HeadErr != nil || (sr.Report != nil && !sr.Report.Ok())
		if failed != tamperedShard {
			t.Fatalf("shard %d: failed=%v, want failure only on shard 1 (report: %+v, headErr: %v)",
				sr.Shard, failed, sr.Report, sr.HeadErr)
		}
	}

	// The super-block head check localizes a *chain* fork too: grow shard
	// 1's chain on top of the tampered state, then verify the OLD
	// super-block — shard 1's signed head must still check out (the chain
	// is append-only), but a verification against it must keep failing in
	// shard 1 only.
	grow := ""
	for i := 0; grow == ""; i++ {
		name := fmt.Sprintf("post-%04d", i)
		if st.ShardOf(sqltypes.NewNVarChar(name)) == 1 {
			grow = name
		}
	}
	tx := s.Begin("teller")
	if err := tx.Insert(st, acct(grow, 7)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rep2, err := VerifySuperBlock(s, sb, s.PublicKey(), VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rep2.Shards {
		failed := sr.HeadErr != nil || (sr.Report != nil && !sr.Report.Ok())
		if failed != (sr.Shard == 1) {
			t.Fatalf("after growth, shard %d failed=%v, want failure only on shard 1", sr.Shard, failed)
		}
	}
}

// TestMultiShardConcurrentIngestAndSuperBlocks races super-block closes
// against live multi-client ingest: four writers hammer both shards
// (every third transaction spans shards, forcing 2PC) while the main
// goroutine closes super-blocks in a loop. Closes must chain seq numbers
// without error mid-ingest, and the quiesced database must verify green
// against a final super-block. `make test-race` runs this under
// the race detector.
func TestMultiShardConcurrentIngestAndSuperBlocks(t *testing.T) {
	s := openShards(t, t.TempDir(), 2)
	defer s.Close()
	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tx := s.Begin("writer")
				if err := tx.Insert(st, acct(fmt.Sprintf("w%d-%06d", w, i), 1)); err != nil {
					tx.Rollback()
					t.Error(err)
					return
				}
				if i%3 == 0 {
					// A second row that lands on the other shard often
					// enough keeps the 2PC path hot under the closes.
					if err := tx.Insert(st, acct(fmt.Sprintf("w%d-%06d-b", w, i), 2)); err != nil {
						tx.Rollback()
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		sb, err := s.CloseSuperBlock()
		if err != nil {
			t.Errorf("CloseSuperBlock mid-ingest: %v", err)
			return
		}
		if sb.SeqNo <= lastSeq {
			t.Errorf("super-block seq did not advance: %d after %d", sb.SeqNo, lastSeq)
			return
		}
		lastSeq = sb.SeqNo
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	sb, err := s.CloseSuperBlock()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifySuperBlock(s, sb, s.PublicKey(), VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("verification after concurrent ingest + closes failed:\n%s", rep.String())
	}
}

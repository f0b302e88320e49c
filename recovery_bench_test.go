// Restart benchmark and equivalence test for recovery: redo replays the
// log in log order behind one read-ahead goroutine, and tables install in
// parallel (DESIGN.md decision 15). Every worker count must land on the
// state the crashed build acknowledged: digests are compared on every
// run and the full verification pass must stay green.
package sqlledger_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sqlledger"
)

// buildRecoveryImage loads rows into a fresh database in 1000-row
// transactions on a logical clock and closes it WITHOUT a checkpoint, so
// every subsequent Open replays the full WAL. It returns the digest the
// build observed; recovery at any worker count must reproduce it.
func buildRecoveryImage(tb testing.TB, dir string, rows int) sqlledger.Digest {
	tb.Helper()
	db := openIngestDB(tb, dir)
	lt, err := db.CreateLedgerTable("t", ingestSchema(), sqlledger.Updateable)
	if err != nil {
		tb.Fatal(err)
	}
	batch := make([]sqlledger.Row, 0, ingestBatchRows)
	for lo := 0; lo < rows; lo += ingestBatchRows {
		batch = batch[:0]
		for j := 0; j < ingestBatchRows && lo+j < rows; j++ {
			batch = append(batch, ingestRow(int64(lo+j)))
		}
		tx := db.Begin("load")
		if err := tx.InsertBatch(lt, batch); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	// Close all ledger blocks now so recovery-time digest generation is a
	// pure read and repeated recoveries of the same image are identical.
	d, err := db.GenerateDigest()
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// recoverImage reopens the image with the given replay worker count and
// returns the Open wall time and the post-recovery digest hash.
func recoverImage(tb testing.TB, dir string, workers int) (time.Duration, string) {
	tb.Helper()
	var tick atomic.Int64
	tick.Store(1_800_000_000_000_000_000)
	start := time.Now()
	db, err := sqlledger.Open(sqlledger.Options{
		Dir: dir, Name: "ingest",
		BlockSize:       sqlledger.DefaultBlockSize,
		LockTimeout:     5 * time.Second,
		RecoveryWorkers: workers,
		Clock:           func() int64 { return tick.Add(1) },
	})
	if err != nil {
		tb.Fatalf("recover with %d workers: %v", workers, err)
	}
	elapsed := time.Since(start)
	d, err := db.GenerateDigest()
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	return elapsed, d.Hash
}

// BenchmarkRecovery measures full-WAL restart at 1/2/4/8 recovery workers
// over one prebuilt crash image. One op is one complete Open; the custom
// metric reports replayed rows per second.
func BenchmarkRecovery(b *testing.B) {
	const rows = 50_000
	dir := b.TempDir()
	buildRecoveryImage(b, dir, rows)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dw", workers), func(b *testing.B) {
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _ := recoverImage(b, dir, workers)
				total += d
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*rows/total.Seconds(), "rows/s")
		})
	}
}

// TestRecoverySerialParallelEquivalence replays crash images — each with
// a torn record tail, as a real crash leaves — at 1, 2 and 4 recovery
// workers, and requires the byte-identical digest the build observed, a
// green full verification and every acknowledged row's last value from
// each. The ingest image is one bulk load with no checkpoint, so the
// whole log replays; the churn image updates, deletes and re-inserts the
// same few keys in consecutive transactions, adds a column between
// commits and checkpoints half way, so replay grows chains from the
// snapshot and new ones in commit order across a schema change. The churn
// image with its snapshots deleted replays the whole log instead: the
// snapshot plus the log after it must come to what the whole log does.
func TestRecoverySerialParallelEquivalence(t *testing.T) {
	images := []struct {
		name  string
		build func(tb testing.TB, dir string) (sqlledger.Digest, map[string]sqlledger.Row)
	}{
		{"ingest", func(tb testing.TB, dir string) (sqlledger.Digest, map[string]sqlledger.Row) {
			return buildRecoveryImage(tb, dir, 10_000), nil
		}},
		{"churn", buildChurnImage},
		{"churn-no-snapshot", func(tb testing.TB, dir string) (sqlledger.Digest, map[string]sqlledger.Row) {
			built, last := buildChurnImage(tb, dir)
			snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.log"))
			if len(snaps) == 0 {
				tb.Fatal("the churn image holds no snapshot")
			}
			for _, p := range snaps {
				if err := os.Remove(p); err != nil {
					tb.Fatal(err)
				}
			}
			return built, last
		}},
	}
	for _, img := range images {
		t.Run(img.name, func(t *testing.T) {
			dir := t.TempDir()
			built, last := img.build(t, dir)
			// Simulate a crash mid-append: a partial record header at the tail.
			f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0xFF, 0x01, 0x02}); err != nil {
				t.Fatal(err)
			}
			f.Close()
			for _, workers := range []int{1, 2, 4} {
				checkRecovered(t, dir, workers, built, last)
			}
		})
	}
}

// checkRecovered reopens dir with the given recovery worker count and
// requires the built digest, a green Verify and, in table "acct", each
// key's last acknowledged row (nil: deleted).
func checkRecovered(t *testing.T, dir string, workers int, built sqlledger.Digest, last map[string]sqlledger.Row) {
	t.Helper()
	var tick atomic.Int64
	tick.Store(1_800_000_000_000_000_000)
	db, err := sqlledger.Open(sqlledger.Options{
		Dir: dir, Name: "ingest",
		BlockSize:       sqlledger.DefaultBlockSize,
		LockTimeout:     5 * time.Second,
		RecoveryWorkers: workers,
		Clock:           func() int64 { return tick.Add(1) },
	})
	if err != nil {
		t.Fatalf("recover with %d workers: %v", workers, err)
	}
	defer db.Close()
	d, err := db.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d.Hash != built.Hash {
		t.Fatalf("workers=%d digest %s, want %s", workers, d.Hash, built.Hash)
	}
	rep, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("workers=%d verification failed: %+v", workers, rep)
	}
	if last == nil {
		return
	}
	lt, err := db.LedgerTable("acct")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("check")
	defer tx.Rollback()
	for key, want := range last {
		got, ok, err := tx.Get(lt, sqlledger.NVarChar(key))
		if err != nil || ok != (want != nil) || (ok && !got.Equal(want)) {
			t.Fatalf("workers=%d key %s = %v, %v, %v; want %v", workers, key, got, ok, err, want)
		}
	}
}

// buildChurnImage writes the churn crash image into dir and returns the
// digest it closed with and each key's last acknowledged row (nil once
// deleted). Rounds of single-key transactions update, delete, re-insert
// and update each of a few keys back to back; a two-key transaction ends
// every round. A column is added after round 1, the database checkpoints
// after round 2, and keys first inserted after the checkpoint have no
// snapshot image.
func buildChurnImage(tb testing.TB, dir string) (sqlledger.Digest, map[string]sqlledger.Row) {
	tb.Helper()
	db := openIngestDB(tb, dir)
	lt, err := db.CreateLedgerTable("acct", accountsSchema(), sqlledger.Updateable)
	if err != nil {
		tb.Fatal(err)
	}
	last := make(map[string]sqlledger.Row)
	wide := false
	row := func(key string, v int64) sqlledger.Row {
		r := sqlledger.Row{sqlledger.NVarChar(key), sqlledger.BigInt(v)}
		if wide {
			tag := sqlledger.Null(sqlledger.TypeNVarChar)
			if v%2 == 0 {
				tag = sqlledger.NVarChar(fmt.Sprintf("t%d", v))
			}
			r = append(r, tag)
		}
		return r
	}
	commit := func(ops ...func(tx *sqlledger.Tx) error) {
		tx := db.Begin("churn")
		for _, op := range ops {
			if err := op(tx); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	put := func(insert bool, key string, v int64) func(tx *sqlledger.Tx) error {
		return func(tx *sqlledger.Tx) error {
			r := row(key, v)
			last[key] = r
			if insert {
				return tx.Insert(lt, r)
			}
			return tx.Update(lt, r)
		}
	}
	del := func(key string) func(tx *sqlledger.Tx) error {
		return func(tx *sqlledger.Tx) error {
			last[key] = nil
			return tx.Delete(lt, sqlledger.NVarChar(key))
		}
	}
	keys := []string{"k0", "k1", "k2"}
	for _, k := range keys {
		commit(put(true, k, 0))
	}
	v := int64(1)
	for round := 0; round < 5; round++ {
		if round == 3 {
			keys = append(keys, "n0", "n1")
			for _, k := range keys[3:] {
				commit(put(true, k, v))
				v++
			}
		}
		for _, k := range keys {
			commit(put(false, k, v))
			commit(del(k))
			commit(put(true, k, v+1))
			commit(put(false, k, v+2))
			v += 3
		}
		commit(put(false, keys[0], v), del(keys[len(keys)-1]))
		commit(put(true, keys[len(keys)-1], v+1), put(false, keys[0], v+2))
		v += 3
		switch round {
		case 1:
			if err := db.AddColumn(lt, sqlledger.NullableCol("tag", sqlledger.TypeNVarChar)); err != nil {
				tb.Fatal(err)
			}
			wide = true
			for k, r := range last {
				if r != nil {
					last[k] = append(r, sqlledger.Null(sqlledger.TypeNVarChar))
				}
			}
		case 2:
			if err := db.Checkpoint(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	commit(del(keys[1]))
	d, err := db.GenerateDigest()
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	return d, last
}

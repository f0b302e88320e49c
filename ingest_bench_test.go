// Ingest-scaling benchmark and gate for the bulk-DML fast path:
// InsertBatch hashes row versions on a worker pool while preserving the
// serial path's Merkle append order, so bulk loads scale with cores
// without changing a single ledger byte (see DESIGN.md decision 10).
package sqlledger_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sqlledger"
	"sqlledger/internal/workload"
)

// ingestBatchRows is the rows-per-transaction of the bulk load; matches
// the chunk size the workload loaders use.
const ingestBatchRows = 1000

// The ingest table and its ~260-byte rows, the width the paper's latency
// experiments use.
var ingestSchema, ingestRow = workload.IngestSchema, workload.IngestRow

// openIngestDB opens a ledger database on a logical clock, so runs that
// ingest the same rows produce byte-identical digests regardless of timing
// or worker count.
func openIngestDB(tb testing.TB, dir string) *sqlledger.DB {
	tb.Helper()
	var tick atomic.Int64
	tick.Store(1_700_000_000_000_000_000)
	db, err := sqlledger.Open(sqlledger.Options{
		Dir: dir, Name: "ingest",
		BlockSize:   sqlledger.DefaultBlockSize,
		LockTimeout: 5 * time.Second,
		Clock:       func() int64 { return tick.Add(1) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// runIngest loads n rows in ingestBatchRows-row transactions and returns
// the elapsed load time and the final digest hash. workers < 0 selects
// one-at-a-time Inserts; otherwise InsertBatch with that worker count.
func runIngest(tb testing.TB, dir string, workers, n int) (time.Duration, string) {
	tb.Helper()
	db := openIngestDB(tb, dir)
	defer db.Close()
	lt, err := db.CreateLedgerTable("t", ingestSchema(), sqlledger.Updateable)
	if err != nil {
		tb.Fatal(err)
	}
	batch := make([]sqlledger.Row, 0, ingestBatchRows)
	start := time.Now()
	for lo := 0; lo < n; lo += ingestBatchRows {
		batch = batch[:0]
		for j := 0; j < ingestBatchRows && lo+j < n; j++ {
			batch = append(batch, ingestRow(int64(lo+j)))
		}
		tx := db.Begin("load")
		if workers < 0 {
			for _, r := range batch {
				if err := tx.Insert(lt, r); err != nil {
					tb.Fatal(err)
				}
			}
		} else if err := tx.InsertBatchParallel(lt, batch, workers); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	d, err := db.GenerateDigest()
	if err != nil {
		tb.Fatal(err)
	}
	return elapsed, d.Hash
}

// BenchmarkIngest compares bulk-load throughput of serial inserts
// against InsertBatch at 1/2/4/8 hashing workers. One op is one
// 1000-row transaction; the custom metric reports rows/s.
func BenchmarkIngest(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", -1},
		{"batch-1w", 1},
		{"batch-2w", 2},
		{"batch-4w", 4},
		{"batch-8w", 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db := openIngestDB(b, b.TempDir())
			defer db.Close()
			lt, err := db.CreateLedgerTable("t", ingestSchema(), sqlledger.Updateable)
			if err != nil {
				b.Fatal(err)
			}
			id := int64(0)
			batch := make([]sqlledger.Row, ingestBatchRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					id++
					batch[j] = ingestRow(id)
				}
				tx := db.Begin("load")
				if cfg.workers < 0 {
					for _, r := range batch {
						if err := tx.Insert(lt, r); err != nil {
							b.Fatal(err)
						}
					}
				} else if err := tx.InsertBatchParallel(lt, batch, cfg.workers); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*ingestBatchRows/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// TestIngestScaling gates the bulk-DML fast path. The digest-equality
// half runs everywhere: a batched load must land on the byte-identical
// digest as a serial load of the same rows. The throughput half — batch
// ingest at 4 workers must be at least 2x serial-insert throughput —
// needs real hardware parallelism, so it is skipped below 4 CPUs and
// under the race detector (which serializes goroutines enough to distort
// wall-clock ratios).
func TestIngestScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	const rows = 20_000
	base := t.TempDir()
	serialDur, serialHash := runIngest(t, filepath.Join(base, "serial"), -1, rows)
	batchDur, batchHash := runIngest(t, filepath.Join(base, "batch4"), 4, rows)
	if batchHash != serialHash {
		t.Fatalf("digest mismatch: serial %s, batch %s", serialHash, batchHash)
	}
	if raceEnabled {
		t.Skip("throughput gate skipped under -race")
	}
	if ncpu := runtime.GOMAXPROCS(0); ncpu < 4 {
		t.Skipf("throughput gate needs >=4 CPUs, have %d", ncpu)
	}
	// Best of three trials per side to damp scheduler noise.
	for trial := 0; trial < 2; trial++ {
		d, _ := runIngest(t, filepath.Join(base, fmt.Sprintf("serial-%d", trial)), -1, rows)
		if d < serialDur {
			serialDur = d
		}
		d, _ = runIngest(t, filepath.Join(base, fmt.Sprintf("batch4-%d", trial)), 4, rows)
		if d < batchDur {
			batchDur = d
		}
	}
	speedup := float64(serialDur) / float64(batchDur)
	t.Logf("serial %v, batch(4 workers) %v, speedup %.2fx", serialDur, batchDur, speedup)
	if speedup < 2.0 {
		t.Fatalf("bulk-load speedup %.2fx at 4 workers, want >= 2x (serial %v, batch %v)",
			speedup, serialDur, batchDur)
	}
}

// Read-scaling benchmark and gate for the MVCC snapshot read path:
// read-only transactions pin a commit timestamp and read row versions
// without touching the lock table, so rows-read/s scales with reader
// count even while writers churn the same rows under 2PL (see DESIGN.md
// decision 11).
package sqlledger_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlledger"
	"sqlledger/internal/workload"
)

// readBenchRows is the preloaded table size; large enough that random
// point reads miss caches, small enough to load quickly.
const readBenchRows = 20_000

func openReadDB(tb testing.TB, dir string) *sqlledger.DB {
	tb.Helper()
	db, err := sqlledger.Open(sqlledger.Options{
		Dir: dir, Name: "read",
		BlockSize:   sqlledger.DefaultBlockSize,
		LockTimeout: 5 * time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// startWriters runs n background single-row-update clients until the
// returned stop function is called.
func startWriters(w *workload.ReadMostly, n int) (stop func() int64) {
	var halt atomic.Bool
	var writes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			op := w.Writer(int64(g + 1))
			for !halt.Load() {
				if op() == nil {
					writes.Add(1)
				}
			}
		}(g)
	}
	return func() int64 {
		halt.Store(true)
		wg.Wait()
		return writes.Load()
	}
}

// runReadTrial runs txs reader transactions across `readers` clients with
// two writers active and returns the elapsed wall clock.
func runReadTrial(tb testing.TB, w *workload.ReadMostly, readers, txs int) time.Duration {
	tb.Helper()
	stop := startWriters(w, 2)
	res := workload.DriveN(readers, txs, func(id int) func() error {
		return w.Reader(int64(readers*1000 + id + 1))
	})
	stop()
	if res.Errors > 0 {
		tb.Fatalf("read trial at %d readers: %d errors: %v", readers, res.Errors, res.Err)
	}
	return res.Elapsed
}

// BenchmarkReadConcurrent measures snapshot read throughput at 1/2/4/8
// reader clients with 2 update writers always active. One op is one
// read transaction of workload.ReadsPerTx point reads; the custom metrics
// report rows/s and the writers' committed updates/s beside them.
func BenchmarkReadConcurrent(b *testing.B) {
	db := openReadDB(b, b.TempDir())
	defer db.Close()
	w, err := workload.NewReadMostly(db, readBenchRows)
	if err != nil {
		b.Fatal(err)
	}
	for _, readers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("readers-%d", readers), func(b *testing.B) {
			stop := startWriters(w, 2)
			b.ResetTimer()
			res := workload.DriveN(readers, b.N, func(id int) func() error {
				return w.Reader(int64(readers*1000 + id + 1))
			})
			b.StopTimer()
			writes := stop()
			if res.Errors > 0 {
				b.Fatalf("%d errors: %v", res.Errors, res.Err)
			}
			b.ReportMetric(float64(res.Commits)*workload.ReadsPerTx/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(writes)/b.Elapsed().Seconds(), "writes/s")
		})
	}
}

// TestReadScaling gates the MVCC read path: with 2 writers active, 4
// reader clients must complete a fixed budget of read transactions at
// least 2x faster than 1 reader client. Like TestIngestScaling, the
// wall-clock gate needs real parallelism, so it is skipped below 4 CPUs
// and under the race detector.
func TestReadScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	if raceEnabled {
		t.Skip("throughput gate skipped under -race")
	}
	if ncpu := runtime.GOMAXPROCS(0); ncpu < 4 {
		t.Skipf("throughput gate needs >=4 CPUs, have %d", ncpu)
	}
	db := openReadDB(t, t.TempDir())
	defer db.Close()
	w, err := workload.NewReadMostly(db, readBenchRows)
	if err != nil {
		t.Fatal(err)
	}
	const txs = 4000
	runReadTrial(t, w, 1, txs/4) // warmup
	// Best of three trials per side to damp scheduler noise.
	var serialDur, parallelDur time.Duration
	for trial := 0; trial < 3; trial++ {
		d := runReadTrial(t, w, 1, txs)
		if trial == 0 || d < serialDur {
			serialDur = d
		}
		d = runReadTrial(t, w, 4, txs)
		if trial == 0 || d < parallelDur {
			parallelDur = d
		}
	}
	speedup := float64(serialDur) / float64(parallelDur)
	t.Logf("1 reader %v, 4 readers %v, speedup %.2fx (2 writers active)", serialDur, parallelDur, speedup)
	if speedup < 2.0 {
		t.Fatalf("read speedup %.2fx at 4 readers, want >= 2x (1 reader %v, 4 readers %v)",
			speedup, serialDur, parallelDur)
	}
}

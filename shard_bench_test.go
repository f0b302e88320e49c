// Shard-scaling benchmark and gate: N shards, each with its own engine,
// WAL, group committer and block chain, relieve the single-engine
// serialization of the apply path, while the super-block keeps one signed
// root over all of them (see DESIGN.md decisions 12 and 19).
package sqlledger_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sqlledger"
	"sqlledger/internal/workload"
)

// shardIngestClients is the fixed client pool driving every shard count,
// so measured speedups come from shard parallelism, not extra drivers.
const shardIngestClients = 4

// runShardIngest loads n rows (serial when clients == 0, in single-shard
// transactions from a client pool otherwise), closes a super-block, and
// returns the elapsed load time plus the signed super-root.
func runShardIngest(tb testing.TB, dir string, shards, clients, n int) (time.Duration, string) {
	tb.Helper()
	db := openIngestShards(tb, dir, shards)
	defer db.Close()
	loader, err := workload.NewIngest(db, "t")
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	if clients == 0 {
		err = loader.LoadSerial(0, n, ingestBatchRows, 1)
	} else {
		err = loader.LoadParallel(0, n, ingestBatchRows, clients)
	}
	if err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(start)
	sb, err := db.CloseSuperBlock()
	if err != nil {
		tb.Fatal(err)
	}
	return elapsed, sb.Root
}

// BenchmarkIngestShards measures bulk-load throughput at 1/2/4 shards
// under the same 4-client pool of shard-pure 1000-row transactions. One
// op is one clients×1000-row wave; the custom metric reports rows/s.
// On a multicore box rows/s should improve monotonically with shards:
// each shard is an independent engine, so waves that serialize on one
// engine's apply path and commit sequence spread across N of them.
func BenchmarkIngestShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			db := openIngestShards(b, b.TempDir(), shards)
			defer db.Close()
			loader, err := workload.NewIngest(db, "t")
			if err != nil {
				b.Fatal(err)
			}
			const wave = shardIngestClients * ingestBatchRows
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := loader.LoadParallel(i*wave, (i+1)*wave, ingestBatchRows, shardIngestClients); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*wave/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// TestShardIngestScaling gates the multi-shard ingest path. The
// reproducibility half runs everywhere: two identical serial runs at 2
// shards must land on the identical super-root, and every shard count must
// verify green against its super-block. The throughput half — parallel ingest must not get slower
// as shards grow 1→2→4 under a fixed client pool — needs real hardware
// parallelism, so it is skipped below 4 CPUs and under the race
// detector.
func TestShardIngestScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	const rows = 20_000
	base := t.TempDir()

	// Identical serial histories at 2 shards reach the identical signed
	// super-root, even though every batch commits through 2PC.
	_, rootA := runShardIngest(t, filepath.Join(base, "two-a"), 2, 0, rows)
	_, rootB := runShardIngest(t, filepath.Join(base, "two-b"), 2, 0, rows)
	if rootA != rootB {
		t.Fatalf("identical 2-shard runs diverged: %s vs %s", rootA, rootB)
	}

	// Every shard count verifies green against its own super-block.
	for _, shards := range []int{1, 2, 4} {
		dir := filepath.Join(base, fmt.Sprintf("verify-%d", shards))
		db := openIngestShards(t, dir, shards)
		loader, err := workload.NewIngest(db, "t")
		if err != nil {
			t.Fatal(err)
		}
		if err := loader.LoadParallel(0, rows, ingestBatchRows, shardIngestClients); err != nil {
			t.Fatal(err)
		}
		sb, err := db.CloseSuperBlock()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sqlledger.VerifySuperBlock(db, sb, db.PublicKey(), sqlledger.VerifyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("shards=%d verification failed:\n%s", shards, rep.String())
		}
		db.Close()
	}

	if raceEnabled {
		t.Skip("throughput gate skipped under -race")
	}
	if ncpu := runtime.GOMAXPROCS(0); ncpu < 4 {
		t.Skipf("throughput gate needs >=4 CPUs, have %d", ncpu)
	}
	// Best of three trials per shard count to damp scheduler noise.
	best := map[int]time.Duration{}
	for _, shards := range []int{1, 2, 4} {
		for trial := 0; trial < 3; trial++ {
			dir := filepath.Join(base, fmt.Sprintf("perf-%d-%d", shards, trial))
			dur, _ := runShardIngest(t, dir, shards, shardIngestClients, rows)
			if cur, ok := best[shards]; !ok || dur < cur {
				best[shards] = dur
			}
		}
		t.Logf("shards=%d: %v best-of-3 (%d rows, %d clients)", shards, best[shards], rows, shardIngestClients)
	}
	if best[2] > best[1] || best[4] > best[2] {
		t.Fatalf("ingest did not scale monotonically: 1 shard %v, 2 shards %v, 4 shards %v",
			best[1], best[2], best[4])
	}
}

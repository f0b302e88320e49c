package sqlledger_test

// Ablation benchmarks for the design decisions DESIGN.md calls out:
// block size (§3.3.1 argues for large blocks), savepoint cost (§3.2.1
// argues the O(log N) streaming-tree state makes savepoints cheap), and
// the price of per-commit durability.

import (
	"crypto/ed25519"
	"fmt"
	"testing"
	"time"

	"sqlledger"
)

// BenchmarkBlockSize sweeps the ledger block size: small blocks close
// constantly (more block-hash work and system-table writes per tx), large
// blocks amortize it — the reason the paper uses 100K-transaction blocks.
func BenchmarkBlockSize(b *testing.B) {
	for _, size := range []uint32{1, 16, 1024, sqlledger.DefaultBlockSize} {
		b.Run(fmt.Sprintf("block=%d", size), func(b *testing.B) {
			db, err := sqlledger.Open(sqlledger.Options{
				Dir: b.TempDir(), Name: "bench", BlockSize: size,
				LockTimeout: 5 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin("bench")
				if err := tx.Insert(lt, fig8Row(int64(i))); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSavepoint measures savepoint creation inside a transaction
// that has already hashed many row versions: the streaming Merkle state
// is O(log N), so this must stay flat as the transaction grows.
func BenchmarkSavepoint(b *testing.B) {
	for _, preOps := range []int{0, 100, 10000} {
		b.Run(fmt.Sprintf("preOps=%d", preOps), func(b *testing.B) {
			db := benchDB(b)
			lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
			if err != nil {
				b.Fatal(err)
			}
			tx := db.Begin("bench")
			for i := 0; i < preOps; i++ {
				if err := tx.Insert(lt, fig8Row(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx.Savepoint()
			}
			b.StopTimer()
			tx.Rollback()
		})
	}
}

// BenchmarkSavepointRollback measures rolling back a savepoint spanning a
// few operations — the partial-rollback path §3.2.1 designs for.
func BenchmarkSavepointRollback(b *testing.B) {
	db := benchDB(b)
	lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
	if err != nil {
		b.Fatal(err)
	}
	tx := db.Begin("bench")
	for i := 0; i < 1000; i++ {
		if err := tx.Insert(lt, fig8Row(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tx.Savepoint()
		if err := tx.Insert(lt, fig8Row(int64(100000+i))); err != nil {
			b.Fatal(err)
		}
		if err := tx.RollbackTo(sp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Rollback()
}

// BenchmarkVerificationParallelism shows the gain from parallel
// verification (§3.4.2 leans on SQL Server's parallel query execution).
// Two dataset shapes, same total row count: eight evenly-populated tables
// (per-table fan-out suffices) and one large table (the TPC-C-like shape
// where only the intra-table sharded pipeline can use more than one core).
func BenchmarkVerificationParallelism(b *testing.B) {
	shapes := []struct {
		name    string
		nTables int
	}{
		{"tables=8", 8},
		{"tables=1", 1},
	}
	for _, shape := range shapes {
		db := benchDB(b)
		var tables []*sqlledger.LedgerTable
		for i := 0; i < shape.nTables; i++ {
			lt, err := db.CreateLedgerTable(fmt.Sprintf("t%d", i), fig8Schema(), sqlledger.Updateable)
			if err != nil {
				b.Fatal(err)
			}
			tables = append(tables, lt)
		}
		for i := 0; i < 2000; i++ {
			tx := db.Begin("bench")
			if err := tx.Insert(tables[i%shape.nTables], fig8Row(int64(i))); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		d, err := db.GenerateDigest()
		if err != nil {
			b.Fatal(err)
		}
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/parallelism=%d", shape.name, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{Parallelism: par})
					if err != nil || !rep.Ok() {
						b.Fatalf("verify: %v", err)
					}
				}
			})
		}
	}
}

// BenchmarkVerificationIndexes isolates invariant 5 cost as indexes are
// added: the single-pass check computes every index's entry keys in one
// base-table scan, so cost grows with rows + index entries rather than
// indexes × rows.
func BenchmarkVerificationIndexes(b *testing.B) {
	for _, nIdx := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("idx=%d", nIdx), func(b *testing.B) {
			db := benchDB(b)
			lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
			if err != nil {
				b.Fatal(err)
			}
			cols := []string{"a", "b", "c"}
			for i := 0; i < nIdx; i++ {
				if _, err := db.Engine().CreateIndex("t", fmt.Sprintf("ix%d", i), cols[i%len(cols)]); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 5000; i += 20 {
				tx := db.Begin("bench")
				for j := 0; j < 20; j++ {
					if err := tx.Insert(lt, fig8Row(int64(i+j))); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			d, err := db.GenerateDigest()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{})
				if err != nil || !rep.Ok() {
					b.Fatalf("verify: %v", err)
				}
			}
		})
	}
}

// BenchmarkDigestGeneration isolates digest generation itself (§2.2 says
// it is cheap enough to run every second).
func BenchmarkDigestGeneration(b *testing.B) {
	db := benchDB(b)
	lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tx := db.Begin("bench")
		if err := tx.Insert(lt, fig8Row(int64(i))); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.GenerateDigest(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentationOverhead prices the observability layer on the
// hot commit path: the same single-row-insert commit loop with the
// default (enabled) registry, with per-transaction tracing switched off,
// and with metrics disabled entirely. The metrics deltas are the full
// cost of counters, stage timers, span hooks and the audit event log;
// the trace=on/trace=off delta isolates the
// tracing layer (trace allocation from the pool, per-stage span records,
// the tail-sampling decision) and is gated ≤3% by
// TestTracingOverheadGate. The budget is <2% for metrics on durable
// (SyncFull) commits, the configuration the paper's commit experiments
// use. The buffered mode exposes the absolute per-commit cost, since
// there is no fsync to hide behind.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	modes := []struct {
		name string
		obs  func() *sqlledger.MetricsRegistry
	}{
		{"metrics=on/trace=on", sqlledger.NewMetricsRegistry},
		{"metrics=on/trace=off", tracingOffRegistry},
		{"metrics=off", sqlledger.DisabledMetrics},
	}
	syncs := []struct {
		name string
		mode sqlledger.SyncMode
	}{
		{"sync=buffered", sqlledger.SyncBuffered},
		{"sync=full", sqlledger.SyncFull},
	}
	for _, sync := range syncs {
		for _, mode := range modes {
			b.Run(sync.name+"/"+mode.name, func(b *testing.B) {
				reg := mode.obs()
				db, err := sqlledger.Open(sqlledger.Options{
					Dir: b.TempDir(), Name: "bench",
					BlockSize:   sqlledger.DefaultBlockSize,
					Sync:        sync.mode,
					LockTimeout: 5 * time.Second,
					Obs:         reg,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx := db.Begin("bench")
					if err := tx.Insert(lt, fig8Row(int64(i))); err != nil {
						b.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReceipt measures receipt generation and offline verification.
func BenchmarkReceipt(b *testing.B) {
	db := benchDB(b)
	lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
	if err != nil {
		b.Fatal(err)
	}
	var txIDs []uint64
	for i := 0; i < 500; i++ {
		tx := db.Begin("bench")
		if err := tx.Insert(lt, fig8Row(int64(i))); err != nil {
			b.Fatal(err)
		}
		txIDs = append(txIDs, tx.ID())
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.GenerateDigest(); err != nil {
		b.Fatal(err)
	}
	pub, priv := receiptKeys(b)
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.GenerateReceipt(txIDs[i%len(txIDs)], priv); err != nil {
				b.Fatal(err)
			}
		}
	})
	r, err := db.GenerateReceipt(txIDs[0], priv)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := sqlledger.VerifyReceipt(r, pub); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func receiptKeys(b *testing.B) (ed25519.PublicKey, ed25519.PrivateKey) {
	b.Helper()
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	return pub, priv
}

// Benchmarks for the paper's evaluation (§4) that run below the
// end-to-end benchmark in bench/.
//
//	Figure 7: not here — the tpcc and tpce workloads of bench/
//	          (`bash bench/run.sh --workload tpcc|tpce`) report the
//	          ledger-vs-regular throughput ratio as ledger_tax.
//	Figure 8: BenchmarkFigure8
//	          single-row DML latency (insert/update/delete), 260-byte
//	          rows, 0-3 nonclustered indexes, ledger vs. regular.
//	Figure 9: BenchmarkFigure9Verification
//	          ledger verification time vs. number of transactions
//	          (each transaction updates five 260-byte rows).
//	§4.1.1:   BenchmarkBlockchainBaseline — the simulated decentralized
//	          ledger the paper compares against (">20x" claim); compare
//	          its tx/s with bench/ tpcc's ledger-twin work_per_s.
//	§2.2:     BenchmarkDigest{Incremental,NaiveFullRehash} — why the
//	          database ledger is maintained incrementally.
//	§4.1.2:   BenchmarkCommit — the ~125µs commit cost the paper notes
//	          dominates short transactions.
//	§3.3.2:   BenchmarkCommitConcurrent — commit throughput, fsyncs/commit
//	          and commits/group at 1-8 clients.
//
// The scaling experiments sit beside them (ingest_, read_, recovery_ and
// audit_bench_test.go); `make bench-smoke` runs every one
// once. EXPERIMENTS.md records paper-vs-measured numbers.
package sqlledger_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sqlledger"
	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/simchain"
	"sqlledger/internal/wal"
	"sqlledger/internal/workload"
)

func benchDB(b *testing.B) *sqlledger.DB {
	b.Helper()
	db, err := sqlledger.Open(sqlledger.Options{
		Dir: b.TempDir(), Name: "bench", BlockSize: sqlledger.DefaultBlockSize,
		LockTimeout: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// --- Figure 8: DML latency -------------------------------------------------

// fig8Schema builds the paper's 260-byte-row table: an id plus three
// indexable integers plus filler.
func fig8Schema() *sqlledger.Schema {
	return sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt),
		sqlledger.Col("a", sqlledger.TypeBigInt),
		sqlledger.Col("b", sqlledger.TypeBigInt),
		sqlledger.Col("c", sqlledger.TypeBigInt),
		sqlledger.Col("filler", sqlledger.TypeVarChar),
	}, "id")
}

func fig8Row(id int64) sqlledger.Row {
	filler := make([]byte, 210) // ~260 bytes serialized with the id/ints
	for i := range filler {
		filler[i] = byte('a' + (id+int64(i))%26)
	}
	return sqlledger.Row{
		sqlledger.BigInt(id), sqlledger.BigInt(id * 3), sqlledger.BigInt(id * 7),
		sqlledger.BigInt(id * 11), sqlledger.VarChar(string(filler)),
	}
}

type fig8Table struct {
	db     *sqlledger.DB
	ledger *sqlledger.LedgerTable // nil in regular mode
	name   string
}

func fig8Setup(b *testing.B, ledger bool, indexes int) fig8Table {
	b.Helper()
	db := benchDB(b)
	ft := fig8Table{db: db, name: "fig8"}
	if ledger {
		lt, err := db.CreateLedgerTable("fig8", fig8Schema(), sqlledger.Updateable)
		if err != nil {
			b.Fatal(err)
		}
		ft.ledger = lt
	} else {
		spec := engine.CreateTableSpec{Name: "fig8", Schema: fig8Schema()}
		if _, err := db.Engine().CreateTable(spec); err != nil {
			b.Fatal(err)
		}
	}
	for i, col := range []string{"a", "b", "c"}[:indexes] {
		if _, err := db.Engine().CreateIndex("fig8", fmt.Sprintf("ix_fig8_%d", i), col); err != nil {
			b.Fatal(err)
		}
	}
	return ft
}

func (ft fig8Table) insert(b *testing.B, id int64) {
	tx := ft.db.Begin("bench")
	var err error
	if ft.ledger != nil {
		err = tx.Insert(ft.ledger, fig8Row(id))
	} else {
		et, _ := ft.db.Engine().Table(ft.name)
		_, err = tx.Raw().Insert(et, fig8Row(id))
	}
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

func (ft fig8Table) update(b *testing.B, id int64) {
	tx := ft.db.Begin("bench")
	row := fig8Row(id)
	row[1] = sqlledger.BigInt(id * 13)
	var err error
	if ft.ledger != nil {
		err = tx.Update(ft.ledger, row)
	} else {
		et, _ := ft.db.Engine().Table(ft.name)
		_, err = tx.Raw().Update(et, row)
	}
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

func (ft fig8Table) del(b *testing.B, id int64) {
	tx := ft.db.Begin("bench")
	var err error
	if ft.ledger != nil {
		err = tx.Delete(ft.ledger, sqlledger.BigInt(id))
	} else {
		et, _ := ft.db.Engine().Table(ft.name)
		_, err = tx.Raw().Delete(et, sqlledger.BigInt(id))
	}
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFigure8(b *testing.B) {
	for _, mode := range []string{"regular", "ledger"} {
		ledger := mode == "ledger"
		for _, nIdx := range []int{0, 1, 2, 3} {
			b.Run(fmt.Sprintf("insert/%s/idx=%d", mode, nIdx), func(b *testing.B) {
				ft := fig8Setup(b, ledger, nIdx)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ft.insert(b, int64(i))
				}
			})
			b.Run(fmt.Sprintf("update/%s/idx=%d", mode, nIdx), func(b *testing.B) {
				ft := fig8Setup(b, ledger, nIdx)
				for i := 0; i < b.N; i++ {
					ft.insert(b, int64(i))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ft.update(b, int64(i))
				}
			})
			b.Run(fmt.Sprintf("delete/%s/idx=%d", mode, nIdx), func(b *testing.B) {
				ft := fig8Setup(b, ledger, nIdx)
				for i := 0; i < b.N; i++ {
					ft.insert(b, int64(i))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ft.del(b, int64(i))
				}
			})
		}
	}
}

// --- Figure 9: verification time -------------------------------------------

func BenchmarkFigure9Verification(b *testing.B) {
	for _, nTx := range []int{1000, 5000, 20000} {
		b.Run(fmt.Sprintf("txs=%d", nTx), func(b *testing.B) {
			db := benchDB(b)
			lt, err := db.CreateLedgerTable("fig9", fig8Schema(), sqlledger.Updateable)
			if err != nil {
				b.Fatal(err)
			}
			// Each transaction updates five rows (paper's setup).
			id := int64(0)
			for i := 0; i < nTx; i++ {
				tx := db.Begin("bench")
				for j := 0; j < 5; j++ {
					id++
					if err := tx.Insert(lt, fig8Row(id)); err != nil {
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
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Ok() {
					b.Fatalf("verification failed:\n%s", rep)
				}
			}
			b.ReportMetric(float64(nTx), "txs")
		})
	}
}

// --- §4.1.1: decentralized-ledger baseline ---------------------------------

// BenchmarkBlockchainBaseline pushes 260-byte payloads through the
// simulated consensus ledger. Such systems need many concurrent clients
// to fill blocks, so 64 submitters run per CPU; the metrics are committed
// tx/s and the mean end-to-end latency of one submission.
func BenchmarkBlockchainBaseline(b *testing.B) {
	cfg := simchain.DefaultConfig()
	chain := simchain.New(cfg)
	defer chain.Stop()
	payload := make([]byte, 260)
	var done, latency atomic.Int64
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			start := time.Now()
			if err := chain.Submit(payload); err == nil {
				latency.Add(int64(time.Since(start)))
				done.Add(1)
			}
		}
	})
	b.ReportMetric(float64(done.Load())/b.Elapsed().Seconds(), "tx/s")
	if n := done.Load(); n > 0 {
		b.ReportMetric(float64(latency.Load())/float64(n)/1e6, "ms/tx")
	}
}

// --- §2.2 ablation: incremental vs. naive digest -----------------------------

func digestAblationDB(b *testing.B, rows int) (*sqlledger.DB, *sqlledger.LedgerTable) {
	b.Helper()
	db := benchDB(b)
	lt, err := db.CreateLedgerTable("abl", fig8Schema(), sqlledger.Updateable)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i += 20 {
		tx := db.Begin("bench")
		for j := 0; j < 20 && i+j < rows; j++ {
			if err := tx.Insert(lt, fig8Row(int64(i+j))); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	return db, lt
}

func BenchmarkDigestIncremental(b *testing.B) {
	db, lt := digestAblationDB(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One more transaction, then a digest: cost is O(new work), not
		// O(dataset) — what lets digests be generated every second.
		tx := db.Begin("bench")
		if err := tx.Insert(lt, fig8Row(int64(100000+i))); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if _, err := db.GenerateDigest(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDigestNaiveFullRehash(b *testing.B) {
	// The §2.2 naive strawman: hash the whole dataset for every digest.
	db, lt := digestAblationDB(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := db.Verify(nil, sqlledger.VerifyOptions{Tables: []string{"abl"}})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Ok() {
			b.Fatal("naive rehash failed")
		}
		_ = lt
	}
}

// --- Commit scaling: staged group-commit pipeline ----------------------------

// BenchmarkCommitConcurrent measures commit throughput under SyncFull —
// where durability costs one fsync per write group — at increasing client
// counts: one client pays one fsync per commit, concurrent clients share
// them. After the run the ledger is verified twice, serially and in
// parallel, and the reports must be identical.
func BenchmarkCommitConcurrent(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			db, err := sqlledger.Open(sqlledger.Options{
				Dir: b.TempDir(), Name: "bench",
				Sync:        sqlledger.SyncFull,
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
			before := db.Snapshot()
			b.ResetTimer()
			res := workload.DriveN(clients, b.N, func(id int) func() error {
				seq := int64(0)
				return func() error {
					seq++
					tx := db.Begin("bench")
					if err := tx.Insert(lt, fig8Row(int64(id+1)*1_000_000_000+seq)); err != nil {
						tx.Rollback()
						return err
					}
					return tx.Commit()
				}
			})
			b.StopTimer()
			if res.Errors > 0 {
				b.Fatalf("%d commit errors: %v", res.Errors, res.Err)
			}
			after := db.Snapshot()
			delta := func(name string) float64 {
				return float64(after.CounterValue(name) - before.CounterValue(name))
			}
			b.ReportMetric(res.TPS(), "commits/s")
			b.ReportMetric(delta(obs.WALFsyncTotal)/float64(res.Commits), "fsync/commit")
			if g := delta(obs.WALGroups); g > 0 {
				b.ReportMetric(delta(obs.WALGroupCommits)/g, "commits/group")
			}

			// Group commit must not change what verification sees:
			// serial and parallel runs must produce identical reports.
			d, err := db.GenerateDigest()
			if err != nil {
				b.Fatal(err)
			}
			serial, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			parallel, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{Parallelism: 8})
			if err != nil {
				b.Fatal(err)
			}
			if !serial.Ok() || !parallel.Ok() {
				b.Fatalf("verification failed:\n%s\n%s", serial, parallel)
			}
			ns, np := *serial, *parallel
			ns.Timing, np.Timing = sqlledger.VerifyTiming{}, sqlledger.VerifyTiming{}
			if ns.String() != np.String() {
				b.Fatalf("parallel verification diverges from serial:\n%s\n---\n%s", ns.String(), np.String())
			}
		})
	}
}

// --- §4.1.2: commit-inclusive latency ----------------------------------------

func BenchmarkCommit(b *testing.B) {
	for _, sync := range []struct {
		name string
		mode wal.SyncMode
	}{{"buffered", sqlledger.SyncBuffered}, {"fsync", sqlledger.SyncFull}} {
		b.Run(sync.name, func(b *testing.B) {
			db, err := sqlledger.Open(sqlledger.Options{
				Dir: b.TempDir(), Name: "bench",
				Sync: sync.mode,
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

package sqlledger_test

// Benchmarks for the always-on auditor's central claim: re-verifying K
// freshly closed blocks costs O(K), independent of how much history sits
// below the watermark. BenchmarkAuditIncremental builds ledgers of
// different depths and audits the same delta on each — ns/op should stay
// flat as the N= subbenchmark grows. BenchmarkAuditCatchUp prices the
// first cycle of an auditor with no watermark (all N blocks), and
// BenchmarkAuditSampled one 10% cold-history sweep.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sqlledger"
)

// auditLedger builds a ledger in dir with exactly `blocks` closed blocks
// of txPerBlock single-row transactions.
func auditLedger(b *testing.B, dir string, txPerBlock uint32, blocks int) (*sqlledger.DB, *sqlledger.LedgerTable, int64) {
	b.Helper()
	db, err := sqlledger.Open(sqlledger.Options{
		Dir: dir, Name: "bench", BlockSize: txPerBlock,
		LockTimeout: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
	if err != nil {
		b.Fatal(err)
	}
	var next int64
	addBlocks := func(n int) {
		for i := 0; i < n*int(txPerBlock); i++ {
			tx := db.Begin("bench")
			if err := tx.Insert(lt, fig8Row(next)); err != nil {
				b.Fatal(err)
			}
			next++
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	addBlocks(blocks)
	if _, err := db.GenerateDigest(); err != nil { // close the tail block
		b.Fatal(err)
	}
	return db, lt, next
}

// BenchmarkAuditIncremental: each iteration closes K=8 new blocks and
// runs one audit cycle. The N= variants differ only in pre-existing
// history; flat ns/op across them is the O(K) result.
func BenchmarkAuditIncremental(b *testing.B) {
	const txPerBlock = 8
	const deltaBlocks = 8
	for _, blocks := range []int{64, 512} {
		b.Run(fmt.Sprintf("N=%d", blocks), func(b *testing.B) {
			db, lt, next := auditLedger(b, b.TempDir(), txPerBlock, blocks)
			aud, err := db.NewAuditor(sqlledger.AuditorOptions{}) // SampleFraction 0: pure O(K) path
			if err != nil {
				b.Fatal(err)
			}
			if st := aud.RunCycle(); !st.Ok { // catch the watermark up once
				b.Fatalf("catch-up: %v", st.LastReport)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < deltaBlocks*txPerBlock; j++ {
					tx := db.Begin("bench")
					if err := tx.Insert(lt, fig8Row(next)); err != nil {
						b.Fatal(err)
					}
					next++
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := db.GenerateDigest(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if st := aud.RunCycle(); !st.Ok {
					b.Fatalf("audit: %v", st.LastReport)
				}
			}
		})
	}
}

// BenchmarkAuditCatchUp: each iteration is the first RunCycle of an
// auditor whose watermark file was removed, so it verifies all N blocks
// from an empty watermark — the cost a newly attached auditor pays once,
// between a full Verify and the O(K) steady state above.
func BenchmarkAuditCatchUp(b *testing.B) {
	const txPerBlock = 8
	for _, blocks := range []int{64, 512} {
		b.Run(fmt.Sprintf("N=%d", blocks), func(b *testing.B) {
			dir := b.TempDir()
			db, _, _ := auditLedger(b, dir, txPerBlock, blocks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.Remove(filepath.Join(dir, "audit.json")); err != nil && !os.IsNotExist(err) {
					b.Fatal(err)
				}
				aud, err := db.NewAuditor(sqlledger.AuditorOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st := aud.RunCycle()
				if !st.Ok {
					b.Fatalf("catch-up: %v", st.LastReport)
				}
				if st.BlocksCheckedInc < int64(blocks) {
					b.Fatalf("catch-up checked %d blocks, want >= %d", st.BlocksCheckedInc, blocks)
				}
			}
		})
	}
}

// BenchmarkAuditSampled prices one sampling sweep re-checking ~10% of
// cold history per cycle on a settled ledger.
func BenchmarkAuditSampled(b *testing.B) {
	const txPerBlock = 8
	db, _, _ := auditLedger(b, b.TempDir(), txPerBlock, 128)
	aud, err := db.NewAuditor(sqlledger.AuditorOptions{SampleFraction: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	if st := aud.RunCycle(); !st.Ok {
		b.Fatalf("catch-up: %v", st.LastReport)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := aud.RunCycle(); !st.Ok {
			b.Fatalf("audit: %v", st.LastReport)
		}
	}
}

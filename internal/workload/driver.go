// Package workload holds the loaders the root scaling tests and
// benchmarks drive: bulk ingest (Ingest), the snapshot-read mix
// (ReadMostly) and DriveN, the client pool that runs them. The paper's
// TPC-C/TPC-E workloads live in the benchmark module (bench/tpcc.go,
// bench/tpce.go).
package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DriveResult summarizes one concurrent driver run.
type DriveResult struct {
	Commits int64
	Errors  int64
	// Err aggregates per-client failures (errors.Join of each client's
	// first error), so callers see WHAT failed, not just how often.
	Err     error
	Elapsed time.Duration
}

// TPS returns committed transactions per second.
func (r DriveResult) TPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Commits) / r.Elapsed.Seconds()
}

// DriveN runs `clients` goroutines, each repeatedly invoking the op
// returned by newClient(id), until a shared budget of exactly n ops is
// exhausted: clients race to take work. A nil op error counts as a
// commit, anything else as an error. Under `go test -bench`, b.N sets
// the total op count.
func DriveN(clients, n int, newClient func(id int) func() error) DriveResult {
	if clients < 1 {
		clients = 1
	}
	var budget, commits, errs atomic.Int64
	budget.Store(int64(n))
	firstErr := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			op := newClient(g)
			for budget.Add(-1) >= 0 {
				if err := op(); err != nil {
					errs.Add(1)
					if firstErr[g] == nil {
						firstErr[g] = fmt.Errorf("client %d: %w", g, err)
					}
				} else {
					commits.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	return DriveResult{
		Commits: commits.Load(), Errors: errs.Load(),
		Err: errors.Join(firstErr...), Elapsed: time.Since(start),
	}
}

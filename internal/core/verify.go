package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqlledger/internal/obs"
	"sqlledger/internal/wal"
)

// Timing records where a verification run spent its time. Chain and Views
// are wall-clock phase durations; RowVersions and Indexes are summed over
// tables (and their shard workers run concurrently), so they can exceed
// Total on multi-core runs — read them as work done, not wall time.
type Timing struct {
	Total       time.Duration // whole run, wall clock
	Chain       time.Duration // invariants 1–3: digests, block chain, block roots
	RowVersions time.Duration // invariant 4, summed across tables
	Indexes     time.Duration // invariant 5, summed across tables
	Views       time.Duration // ledger-view definition checks
}

func (t Timing) String() string {
	return fmt.Sprintf("total=%v chain=%v row-versions=%v indexes=%v views=%v",
		t.Total.Round(time.Microsecond), t.Chain.Round(time.Microsecond),
		t.RowVersions.Round(time.Microsecond), t.Indexes.Round(time.Microsecond),
		t.Views.Round(time.Microsecond))
}

// Report is the outcome of a verification run.
type Report struct {
	Issues []Issue

	BlocksChecked       int
	TransactionsChecked int
	RowVersionsChecked  int
	TablesChecked       int
	IndexesChecked      int
	DigestsChecked      int

	Timing Timing

	// Shards is the per-shard breakdown, set when the run covered several
	// chains (DB.Verify on a multi-shard database, VerifySuperBlock): the
	// counters above are then totals over the shards, Timing.Total the wall
	// clock of the whole run, and every issue is in its shard's report.
	Shards []ShardReport
}

// ShardReport is one shard's slice of a verification.
type ShardReport struct {
	Shard int
	// HeadErr is non-nil when the shard's current chain no longer matches
	// the signed head digest (or its super-block proof fails) — the
	// super-block check that localizes tampering to a shard even before
	// row-level verification runs.
	HeadErr error
	// Report is the shard's full five-invariant verification report (nil
	// when the shard was empty at super-block time and is skipped).
	Report *Report
}

// Ok reports whether verification succeeded: no non-warning issues, and
// every shard of the breakdown passed its head check and its own run.
func (r *Report) Ok() bool {
	for _, i := range r.Issues {
		if !i.Warning {
			return false
		}
	}
	for _, sr := range r.Shards {
		if sr.HeadErr != nil || (sr.Report != nil && !sr.Report.Ok()) {
			return false
		}
	}
	return true
}

// String summarizes the report, shard by shard when it has a breakdown.
func (r *Report) String() string {
	var b strings.Builder
	for _, sr := range r.Shards {
		fmt.Fprintf(&b, "shard %03d: ", sr.Shard)
		switch {
		case sr.HeadErr != nil:
			b.WriteString("FAILED head check: " + sr.HeadErr.Error())
		case sr.Report == nil:
			b.WriteString("empty, skipped")
		default:
			b.WriteString(sr.Report.String())
		}
		b.WriteByte('\n')
	}
	if r.Shards != nil {
		return b.String()
	}
	fmt.Fprintf(&b, "verification: blocks=%d txs=%d row-versions=%d tables=%d indexes=%d digests=%d",
		r.BlocksChecked, r.TransactionsChecked, r.RowVersionsChecked, r.TablesChecked, r.IndexesChecked, r.DigestsChecked)
	if r.Ok() {
		b.WriteString(" -- OK")
	} else {
		fmt.Fprintf(&b, " -- FAILED (%d issues)", len(r.Issues))
	}
	fmt.Fprintf(&b, "\n  timing: %s", r.Timing)
	for _, i := range r.Issues {
		b.WriteString("\n  ")
		b.WriteString(i.String())
	}
	return b.String()
}

// VerifyOptions tunes a verification run.
type VerifyOptions struct {
	// Tables restricts invariants 4 and 5 to the named ledger tables
	// (§2.3: "options to verify individual Ledger tables or only a subset
	// of the ledger"). Empty means all ledger tables.
	Tables []string
	// Parallelism bounds the number of goroutines verification may keep
	// busy at once (default GOMAXPROCS). It applies both across ledger
	// tables and *within* one: a single large table is split into shard
	// scans and its per-transaction Merkle roots are recomputed by a
	// worker pool, so a database dominated by one table still scales
	// with cores.
	Parallelism int
	// Progress, if set, receives streaming progress updates as phases
	// and per-table shards complete. Ratios are monotonically
	// non-decreasing and end at exactly 1.0; the callback may run from
	// multiple verification goroutines but calls are serialized.
	Progress func(VerifyProgress)
	// Blocks, if set, restricts verification to ledger blocks in the
	// inclusive range [From, To]: invariants 1-3 only cover in-range
	// blocks (the chain link of block From is still anchored against the
	// recomputed hash of block From-1 when that block exists), and
	// invariant 4 only hashes the row versions, and recomputes the Merkle
	// roots, of transactions whose block is in range. Row and index scans
	// still walk whole tables — the range scopes which checks run, not
	// the scan; the incremental Auditor is the O(delta) path.
	Blocks *BlockRange
}

// BlockRange is an inclusive range of ledger block ids.
type BlockRange struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// contains reports whether block b is in the range; a nil range contains
// every block.
func (r *BlockRange) contains(b uint64) bool {
	return r == nil || (b >= r.From && b <= r.To)
}

// workerPool bounds verification concurrency with a semaphore of n slots:
// at most n tasks run at once, across every run call on the pool. A
// goroutine waiting in run holds no slot, so tasks of every table in
// flight compete for the same n slots and the cores stay busy whatever the
// table-size distribution looks like. A task must not call run on the pool
// it runs in (with one slot it would wait for itself): Verify checks tables
// on one pool and fans each table's scans out on another.
type workerPool struct {
	sem chan struct{}
}

func newWorkerPool(n int) *workerPool {
	return &workerPool{sem: make(chan struct{}, max(n, 1))}
}

// run executes every task, each once a slot is free — the last one on the
// calling goroutine — and returns when all have finished.
func (p *workerPool) run(tasks []func()) {
	var wg sync.WaitGroup
	for i, task := range tasks {
		p.sem <- struct{}{}
		if i == len(tasks)-1 {
			task()
			<-p.sem
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			task()
			<-p.sem
		}()
	}
	wg.Wait()
}

// Verify is the ledger verification process (§3.4): given previously
// generated digests, it recomputes every hash in the database ledger from
// the current state of the ledger, history and system tables, checking
// the five invariants plus the ledger-view definitions. It is the
// verification kernel (kernel.go) run over every block — or
// VerifyOptions.Blocks — and every transaction.
//
// Row versions (invariant 4) are read at one pinned snapshot, so that
// check is exact under concurrent writers — and does not hold them up: a
// row-version scan takes a table's read lock for a batch of at most 1024
// keys at a time, to copy out pointers to their stored bytes, and hashes
// with no lock held. The system tables and the nonclustered index trees
// are read as they are: a run that races block closing, a checkpoint or
// index maintenance can report a transient difference, so for a verdict
// on invariants 1-3 and 5 the database should be quiescent (a restored
// copy or a maintenance window, as the paper suggests).
//
// On a multi-shard database every shard is verified, in parallel, against
// the digests that carry its name, and the report is the breakdown.
func (db *DB) Verify(digests []Digest, opts VerifyOptions) (*Report, error) {
	if len(db.shards) == 1 {
		return db.shards[0].Verify(digests, opts)
	}
	return db.verifyShards(func(_ int, l *Shard) ShardReport {
		var own []Digest
		for _, d := range digests {
			if d.DatabaseName == l.opts.Name {
				own = append(own, d)
			}
		}
		rep, err := l.Verify(own, opts)
		return ShardReport{Report: rep, HeadErr: err}
	}), nil
}

// verifyShards runs verify on every shard in parallel and totals the
// breakdown.
func (db *DB) verifyShards(verify func(i int, l *Shard) ShardReport) *Report {
	start := time.Now()
	rep := &Report{Shards: make([]ShardReport, len(db.shards))}
	var wg sync.WaitGroup
	for i, l := range db.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.Shards[i] = verify(i, l)
			rep.Shards[i].Shard = i
		}()
	}
	wg.Wait()
	for _, sr := range rep.Shards {
		if r := sr.Report; r != nil {
			rep.BlocksChecked += r.BlocksChecked
			rep.TransactionsChecked += r.TransactionsChecked
			rep.RowVersionsChecked += r.RowVersionsChecked
			rep.TablesChecked += r.TablesChecked
			rep.IndexesChecked += r.IndexesChecked
			rep.DigestsChecked += r.DigestsChecked
		}
	}
	rep.Timing.Total = time.Since(start)
	return rep
}

// Verify is DB.Verify for this shard's chain.
func (l *Shard) Verify(digests []Digest, opts VerifyOptions) (*Report, error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	rep := &Report{}
	tr := l.obs.NewTrace("verify")
	tr.SetAttr("parallelism", strconv.Itoa(opts.Parallelism))
	var prog *progressSink
	if opts.Progress != nil || l.obs.Enabled() {
		prog = newProgressSink(opts.Progress, l.m.verifyProgress)
	}
	l.obs.Events().Info(obs.EventVerifyStarted,
		"digests", len(digests), "parallelism", opts.Parallelism)
	defer func() {
		tr.Finish(nil)
		l.m.verifies.Inc()
		l.m.verifyIssues.Add(int64(len(rep.Issues)))
		l.m.verifyChain.Observe(rep.Timing.Chain.Seconds())
		l.m.verifyRowVersions.Observe(rep.Timing.RowVersions.Seconds())
		l.m.verifyIndexes.Observe(rep.Timing.Indexes.Seconds())
		l.m.verifyViews.Observe(rep.Timing.Views.Seconds())
		l.m.verifyTotal.Observe(rep.Timing.Total.Seconds())
		l.noteVerifyFinished(rep)
	}()

	// mu guards rep: table checks run concurrently.
	var mu sync.Mutex
	emit := func(f finding) bool {
		mu.Lock()
		rep.Issues = append(rep.Issues, f.issue())
		mu.Unlock()
		return true
	}

	// Pin the snapshot before loading the entries: a transaction's entry
	// is queued before its writes apply, so every row version the
	// snapshot shows belongs to an entry loaded after the pin.
	rtx := l.edb.BeginReadOnly()
	defer rtx.Close()
	byTx, byBlock := l.ledgerEntries()
	truncatedBefore, truncatedMaxTx := l.truncationInfo()

	// Invariants 1-3.
	phase := time.Now()
	chain := l.checkChain(chainCheck{
		blocks: opts.Blocks, digests: digests, entries: byBlock, truncatedBefore: truncatedBefore,
	}, emit)
	rep.BlocksChecked, rep.DigestsChecked = chain.blocks, chain.digests
	rep.Timing.Chain = time.Since(phase)
	prog.add(progressChainWeight, "chain", "")

	// The transactions whose roots invariant 4 recomputes: in range, and
	// applied at the snapshot (a later commit's rows are not in it).
	recorded := make([]uint64, 0, len(byTx))
	entries := make([]*wal.LedgerEntry, 0, len(byTx))
	for tx, e := range byTx {
		recorded = append(recorded, tx)
		if opts.Blocks.contains(e.BlockID) {
			rep.TransactionsChecked++
			if e.CommitTS <= rtx.TS() {
				entries = append(entries, e)
			}
		}
	}
	slices.SortFunc(entries, func(a, b *wal.LedgerEntry) int { return cmp.Compare(a.TxID, b.TxID) })
	pool := newWorkerPool(opts.Parallelism)
	rows := rowCheck{rtx: rtx, slots: newTxSlots(recorded, txUnknown),
		truncatedBefore: truncatedBefore, truncatedMaxTx: truncatedMaxTx,
		parallelism: opts.Parallelism, pool: pool, prog: prog}
	rows.wantEntries(entries)

	// Invariants 4 and 5, per ledger table: up to opts.Parallelism tables
	// in flight, their shard scans and root recomputations sharing one pool
	// of opts.Parallelism slots.
	tables := l.LedgerTables()
	if len(opts.Tables) > 0 {
		named := make(map[string]bool, len(opts.Tables))
		for _, n := range opts.Tables {
			named[strings.ToLower(n)] = true
		}
		var filtered []*LedgerTable
		for _, lt := range tables {
			if named[strings.ToLower(lt.Name())] {
				filtered = append(filtered, lt)
			}
		}
		tables = filtered
	}
	// Progress weight per table, proportional to its row-version count
	// so the bar tracks actual scan work rather than table count.
	tableWeight := make([]float64, len(tables))
	var totalRows float64
	for i, lt := range tables {
		n := float64(lt.table.RowCount() + 1)
		if lt.history != nil {
			n += float64(lt.history.RowCount())
		}
		tableWeight[i] = n
		totalRows += n
	}
	for i := range tableWeight {
		tableWeight[i] = progressTablesWeight * tableWeight[i] / totalRows
	}

	tableTasks := make([]func(), 0, len(tables))
	for ti, lt := range tables {
		lt, w := lt, tableWeight[ti]
		tableTasks = append(tableTasks, func() {
			t0 := time.Now()
			c := rows
			c.weight = w * progressRowsShare
			nrows := l.checkRowVersions(lt, c, emit)
			t1 := time.Now()
			indexes := l.checkIndexes(lt, opts.Parallelism, pool, prog, w*progressIndexShare, emit)
			t2 := time.Now()
			mu.Lock()
			rep.RowVersionsChecked += nrows
			rep.IndexesChecked += indexes
			rep.TablesChecked++
			rep.Timing.RowVersions += t1.Sub(t0)
			rep.Timing.Indexes += t2.Sub(t1)
			mu.Unlock()
		})
	}
	newWorkerPool(opts.Parallelism).run(tableTasks)

	// Final step (§3.4.2): ledger-view definitions.
	phase = time.Now()
	for _, lt := range tables {
		l.checkView(lt, emit)
	}
	rep.Timing.Views = time.Since(phase)
	prog.add(progressViewsWeight, "views", "")
	prog.finish()

	// Total order (invariant, table, detail): parallel runs at any
	// Parallelism produce identical issue lists.
	sort.SliceStable(rep.Issues, func(i, j int) bool {
		a, b := rep.Issues[i], rep.Issues[j]
		if a.Invariant != b.Invariant {
			return a.Invariant < b.Invariant
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.Detail < b.Detail
	})
	rep.Timing.Total = time.Since(start)
	return rep, nil
}

// maxIssueEvents caps per-issue audit events from one verification run
// so a badly tampered database cannot flush the whole event ring.
const maxIssueEvents = 16

// noteVerifyFinished records the run for health tracking and emits the
// finish (and per-issue) audit events.
func (l *Shard) noteVerifyFinished(rep *Report) {
	ev := l.obs.Events()
	for i, iss := range rep.Issues {
		if i == maxIssueEvents {
			ev.Warn(obs.EventVerifyIssue, "suppressed", len(rep.Issues)-maxIssueEvents)
			break
		}
		ev.Warn(obs.EventVerifyIssue,
			"invariant", iss.Invariant, "table", iss.Table, "warning", iss.Warning, "detail", iss.Detail)
	}
	ev.Info(obs.EventVerifyFinished,
		"ok", rep.Ok(), "issues", len(rep.Issues),
		"blocks", rep.BlocksChecked, "transactions", rep.TransactionsChecked,
		"row_versions", rep.RowVersionsChecked,
		"duration_seconds", rep.Timing.Total.Seconds())
	l.healthMu.Lock()
	l.lastVerify = verifyMark{
		done: true, at: time.Now(), dur: rep.Timing.Total,
		ok: rep.Ok(), issues: len(rep.Issues),
	}
	l.healthMu.Unlock()
}

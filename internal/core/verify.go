package core

import (
	"fmt"
	"runtime"
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
// Total on multi-core runs — read them as work done, not wall time. The
// chain walk runs beside the table checks, so Chain overlaps RowVersions
// and Indexes: the phases add up to more than Total.
type Timing struct {
	Total       time.Duration // whole run, wall clock
	Chain       time.Duration // invariants 1–3: digests, block chain, block roots; overlaps the tables
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
}

// Ok reports whether verification succeeded: no non-warning issues.
func (r *Report) Ok() bool {
	for _, i := range r.Issues {
		if !i.Warning {
			return false
		}
	}
	return true
}

// String summarizes the report.
func (r *Report) String() string {
	var b strings.Builder
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
func (db *DB) Verify(digests []Digest, opts VerifyOptions) (*Report, error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	rep := &Report{}
	tr := db.obs.NewTrace("verify")
	tr.SetAttr("parallelism", strconv.Itoa(opts.Parallelism))
	var prog *progressSink
	if opts.Progress != nil || db.obs.Enabled() {
		prog = newProgressSink(opts.Progress, db.m.verifyProgress)
	}
	db.obs.Events().Info(obs.EventVerifyStarted,
		"digests", len(digests), "parallelism", opts.Parallelism)
	defer func() {
		tr.Finish(nil)
		db.noteVerifyFinished(rep)
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
	phase := time.Now()
	rtx := db.edb.BeginReadOnly()
	defer rtx.Close()
	byTx, byBlock, unreadable := db.entries.all()
	trunc, err := db.truncationInfo()
	if err != nil {
		emit(truncationFinding(err))
	}
	truncatedBefore, truncatedMaxTx := trunc.before, trunc.maxTx

	// The transactions whose roots invariant 4 recomputes: in range, and
	// applied at the snapshot (a later commit's rows are not in it). Their
	// slots follow the (block, ordinal) order the entries come in.
	recorded := make([]uint64, 0, len(byTx))
	for tx := range byTx {
		recorded = append(recorded, tx)
	}
	entries := make([]*wal.LedgerEntry, 0, len(byTx))
	for _, b := range sortedKeys(byBlock) {
		if !opts.Blocks.contains(b) {
			continue
		}
		rep.TransactionsChecked += len(byBlock[b])
		for _, e := range byBlock[b] {
			if e.CommitTS <= rtx.TS() {
				entries = append(entries, e)
			}
		}
	}
	pool := newWorkerPool(opts.Parallelism)
	rows := rowCheck{rtx: rtx, slots: newTxSlots(recorded, txUnknown),
		truncatedBefore: truncatedBefore, truncatedMaxTx: truncatedMaxTx,
		parallelism: opts.Parallelism, pool: pool, prog: prog}
	rows.wantEntries(entries)

	tables := db.LedgerTables()
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
	checks := time.Now()
	tr.Record("entries", 0, phase, checks.Sub(phase))

	// Invariants 1-3, the chain walk, beside invariants 4 and 5, per
	// ledger table: up to opts.Parallelism of these tasks in flight, the
	// tables' shard scans and root recomputations sharing one pool of
	// opts.Parallelism slots. Their spans are children of one "checks"
	// span, recorded once they are done: they overlap, and a task waiting
	// for a core is in none of them.
	var spans []obs.TraceSpan
	tasks := make([]func(), 0, 1+len(tables))
	tasks = append(tasks, func() {
		t0 := time.Now()
		chain := db.checkChain(chainCheck{
			blocks: opts.Blocks, digests: digests, entries: byBlock, unreadable: unreadable, truncatedBefore: truncatedBefore,
		}, emit)
		d := time.Since(t0)
		prog.add(progressChainWeight, "chain", "")
		mu.Lock()
		spans = append(spans, obs.TraceSpan{Name: "chain", Start: t0, Duration: d})
		rep.BlocksChecked, rep.DigestsChecked = chain.blocks, chain.digests
		rep.Timing.Chain = d
		mu.Unlock()
	})
	for ti, lt := range tables {
		lt, w := lt, tableWeight[ti]
		tasks = append(tasks, func() {
			t0 := time.Now()
			c := rows
			c.weight = w * progressRowsShare
			nrows := db.checkRowVersions(lt, c, emit)
			t1 := time.Now()
			indexes := db.checkIndexes(lt, opts.Parallelism, pool, prog, w*progressIndexShare, emit)
			t2 := time.Now()
			table := []obs.Label{{Key: "table", Value: lt.Name()}}
			mu.Lock()
			spans = append(spans, obs.TraceSpan{Name: "row_versions", Start: t0, Duration: t1.Sub(t0), Attrs: table},
				obs.TraceSpan{Name: "indexes", Start: t1, Duration: t2.Sub(t1), Attrs: table})
			rep.RowVersionsChecked += nrows
			rep.IndexesChecked += indexes
			rep.TablesChecked++
			rep.Timing.RowVersions += t1.Sub(t0)
			rep.Timing.Indexes += t2.Sub(t1)
			mu.Unlock()
		})
	}
	newWorkerPool(opts.Parallelism).run(tasks)
	phase = time.Now()
	id := tr.Record("checks", 0, checks, phase.Sub(checks))
	for _, sp := range spans {
		tr.Record(sp.Name, id, sp.Start, sp.Duration, sp.Attrs...)
	}

	// Final step (§3.4.2): ledger-view definitions.
	for _, lt := range tables {
		db.checkView(lt, emit)
	}
	rep.Timing.Views = time.Since(phase)
	tr.Record("views", 0, phase, rep.Timing.Views)
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
func (db *DB) noteVerifyFinished(rep *Report) {
	ev := db.obs.Events()
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
	db.healthMu.Lock()
	db.lastVerify = verifyMark{
		done: true, at: time.Now(), dur: rep.Timing.Total,
		ok: rep.Ok(), issues: len(rep.Issues),
	}
	db.healthMu.Unlock()
}

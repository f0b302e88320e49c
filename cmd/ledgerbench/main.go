// Command ledgerbench regenerates the paper's evaluation (§4): it runs the
// workloads and measurements behind every figure and prints tables shaped
// like the ones in the paper.
//
//	ledgerbench -exp fig7        Figure 7: TPC-C/TPC-E throughput delta
//	ledgerbench -exp fig8        Figure 8: DML latency vs. index count
//	ledgerbench -exp fig9        Figure 9: verification time vs. #txs
//	ledgerbench -exp blockchain  §4.1.1: vs. a simulated decentralized ledger
//	ledgerbench -exp naive       §2.2: incremental vs. naive digests
//	ledgerbench -exp commit      commit scaling: commits/s and fsyncs/commit vs. client count
//	ledgerbench -exp ingest      ingest scaling: serial vs. batched parallel hashing
//	ledgerbench -exp read        read scaling: MVCC snapshot reads vs. reader count
//	ledgerbench -exp shard       shard scaling: multi-core ingest under one super-root
//	ledgerbench -exp audit       always-on audit: full rescan vs incremental vs sampled
//	ledgerbench -exp recover     recovery scaling: restart time vs. replay worker count
//	ledgerbench -exp all         everything
//
// Absolute numbers depend on the machine; the paper's claims are about
// relative shape (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlledger"
	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/simchain"
	"sqlledger/internal/workload"
)

var (
	expFlag     = flag.String("exp", "all", "experiment: fig7|fig8|fig9|blockchain|naive|commit|ingest|read|shard|audit|recover|all")
	durFlag     = flag.Duration("duration", 5*time.Second, "measurement duration per configuration")
	clientsFlag = flag.Int("clients", runtime.GOMAXPROCS(0), "concurrent workload clients")
	warehouses  = flag.Int("warehouses", 2, "TPC-C warehouses")
	fig9Sizes   = flag.String("fig9", "1000,5000,20000,50000", "comma-separated transaction counts for Figure 9")
	dirFlag     = flag.String("dir", "", "working directory (default: a temp dir)")
	// baseCost models the per-transaction overhead of a client-server
	// RDBMS (network round trips, protocol parsing, session management)
	// that this embedded engine does not pay. The paper's relative
	// overheads sit on top of SQL Server's substantial per-transaction
	// base cost; see EXPERIMENTS.md.
	baseCost = flag.Duration("basecost", 0, "modeled per-transaction base cost added to every transaction (fig7)")
	// metricsAddr serves the shared registry live while experiments run:
	// /metrics (Prometheus text) and /debug/trace (JSON). "127.0.0.1:0"
	// picks a free port (printed at startup).
	metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/trace on this address (empty: off)")
	statsEvery  = flag.Duration("stats-every", 0, "print a periodic stats line from the metrics registry (0: off)")
	slowMS      = flag.Int("slow-ms", 100, "slow-query threshold in milliseconds: transactions at or above it are always trace-retained and logged to /debug/slow (0: retain every trace)")
	traceSample = flag.Float64("trace-sample", 0.01, "fraction of fast, error-free traces retained, 0..1")
)

// reg is shared by every database the benchmark opens, so the stats
// printer and /metrics endpoint see the whole run.
var reg = sqlledger.NewMetricsRegistry()

func init() { workload.Instrument(reg) }

// burn spins for roughly d (sleeping is too coarse below ~1ms).
func burn(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func main() {
	flag.Parse()
	reg.Traces().SetSlowThreshold(time.Duration(*slowMS) * time.Millisecond)
	reg.Traces().SetSampleRate(*traceSample)
	base := *dirFlag
	if base == "" {
		var err error
		base, err = os.MkdirTemp("", "ledgerbench")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(base)
	}
	var srv *sqlledger.MetricsServer
	if *metricsAddr != "" {
		var err error
		srv, err = sqlledger.StartMetricsServer(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("metrics: http://%s/metrics  traces: http://%s/debug/trace  events: http://%s/debug/events\n",
			srv.Addr(), srv.Addr(), srv.Addr())
		stopSampler := sqlledger.StartRuntimeSampler(reg, time.Second)
		defer stopSampler()
	}
	stopStats := func() {}
	if *statsEvery > 0 {
		stopStats = startStatsPrinter(*statsEvery)
	}
	switch *expFlag {
	case "fig7":
		fig7(base)
	case "fig8":
		fig8(base)
	case "fig9":
		fig9(base)
	case "blockchain":
		blockchain(base)
	case "naive":
		naive(base)
	case "commit":
		commitScaling(base)
	case "ingest":
		ingest(base)
	case "read":
		readScaling(base)
	case "shard":
		shardScaling(base)
	case "audit":
		auditBench(base)
	case "recover":
		recoverScaling(base)
	case "all":
		fig7(base)
		fig8(base)
		fig9(base)
		blockchain(base)
		naive(base)
		commitScaling(base)
		ingest(base)
		readScaling(base)
		shardScaling(base)
		auditBench(base)
		recoverScaling(base)
	default:
		fatal(fmt.Errorf("unknown experiment %q", *expFlag))
	}
	// Stop (and final-flush) the stats printer before the self-check so
	// the last partial interval is printed, not dropped, and no printer
	// goroutine races the endpoint read.
	stopStats()
	if srv != nil {
		selfCheckMetrics(srv.Addr())
		srv.Close()
	}
}

// selfCheckMetrics fetches the live /metrics endpoint at the end of the
// run and fails loudly if it is unreachable, malformed, or missing the
// headline series — so CI catches endpoint regressions without an
// external curl.
func selfCheckMetrics(addr string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		fatal(fmt.Errorf("metrics self-check: %w", err))
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fatal(fmt.Errorf("metrics self-check: %w", err))
	}
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("metrics self-check: status %d", resp.StatusCode))
	}
	for _, want := range []string{obs.WALFsyncTotal, obs.CommitStageSeconds, obs.VerifyPhaseSeconds} {
		if !strings.Contains(string(body), want) {
			fatal(fmt.Errorf("metrics self-check: /metrics is missing %s", want))
		}
	}
	fmt.Printf("metrics self-check ok (%d bytes from /metrics)\n", len(body))
}

// startStatsPrinter prints one line per interval from the shared
// registry — commit and fsync rates plus commit-stage p95s — replacing
// the bespoke per-experiment counters for live monitoring.
func startStatsPrinter(every time.Duration) (stop func()) {
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		var lastCommits, lastFsyncs, lastRows, lastReads int64
		last := time.Now()
		printLine := func(tag string) {
			snap := reg.Snapshot()
			now := time.Now()
			dt := now.Sub(last).Seconds()
			if dt <= 0 {
				return
			}
			commits := snap.CounterValue(obs.EngineCommitTotal)
			fsyncs := snap.CounterValue(obs.WALFsyncTotal)
			rows := snap.CounterValue(obs.RowsHashedTotal)
			reads := snap.CounterValue(obs.SnapshotReadsTotal)
			queue, _ := snap.GaugeValue(obs.LedgerQueueLength)
			line := fmt.Sprintf("[stats%s] commits/s=%.0f rows/s=%.0f reads/s=%.0f fsyncs/s=%.0f queue=%.0f",
				tag, float64(commits-lastCommits)/dt, float64(rows-lastRows)/dt, float64(reads-lastReads)/dt, float64(fsyncs-lastFsyncs)/dt, queue)
			if h, ok := snap.Histogram(obs.CommitStageSeconds, sqlledger.MetricLabel{Key: "stage", Value: "wait"}); ok && h.Count > 0 {
				line += fmt.Sprintf(" wait_p95=%s", time.Duration(h.P95*float64(time.Second)).Round(time.Microsecond))
			}
			if h, ok := snap.Histogram(obs.WALFsyncSeconds); ok && h.Count > 0 {
				line += fmt.Sprintf(" fsync_p95=%s", time.Duration(h.P95*float64(time.Second)).Round(time.Microsecond))
			}
			fmt.Println(line)
			lastCommits, lastFsyncs, lastRows, lastReads, last = commits, fsyncs, rows, reads, now
		}
		for {
			select {
			case <-stopCh:
				// Flush the final partial interval instead of dropping it.
				printLine(" final")
				return
			case <-ticker.C:
				printLine("")
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ledgerbench:", err)
	os.Exit(1)
}

// progressLine returns a VerifyOptions.Progress callback rendering a
// live, self-erasing progress line on w. Updates are throttled to
// whole-percent changes so the callback stays cheap.
func progressLine(w io.Writer) func(sqlledger.VerifyProgress) {
	lastPct := -1
	return func(p sqlledger.VerifyProgress) {
		pct := int(p.Ratio * 100)
		if pct == lastPct && p.Ratio < 1 {
			return
		}
		lastPct = pct
		label := p.Phase
		if p.Table != "" {
			label += " " + p.Table
		}
		fmt.Fprintf(w, "\r  verify %3d%% %-40s", pct, label)
		if p.Ratio >= 1 {
			fmt.Fprintf(w, "\r%*s\r", 56, "")
		}
	}
}

func openDB(base, name string) *sqlledger.DB {
	db, err := sqlledger.Open(sqlledger.Options{
		Dir: filepath.Join(base, name), Name: name,
		BlockSize:   sqlledger.DefaultBlockSize,
		LockTimeout: 5 * time.Second,
		Obs:         reg,
	})
	if err != nil {
		fatal(err)
	}
	return db
}

// runClients drives fn from N goroutines for the configured duration and
// returns committed transactions per second.
func runClients(run func(seed int64, stop *atomic.Bool) int64) float64 {
	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < *clientsFlag; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			total.Add(run(int64(g+1), &stop))
		}(g)
	}
	time.Sleep(*durFlag)
	stop.Store(true)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

// --- Figure 7 ---------------------------------------------------------------

func fig7(base string) {
	fmt.Println("== Figure 7: throughput of SQL Ledger compared to traditional tables ==")
	type result struct{ regular, ledger float64 }
	results := map[string]result{}

	for _, wl := range []string{"TPC-C", "TPC-E"} {
		var r result
		for _, ledger := range []bool{false, true} {
			mode := "regular"
			if ledger {
				mode = "ledger"
			}
			db := openDB(base, fmt.Sprintf("fig7-%s-%s", wl, mode))
			var tps float64
			if wl == "TPC-C" {
				w, err := workload.NewTPCC(db, ledger, *warehouses)
				if err != nil {
					fatal(err)
				}
				tps = runClients(func(seed int64, stop *atomic.Bool) int64 {
					c := w.NewClient(seed)
					for !stop.Load() {
						burn(*baseCost)
						_ = c.RunOne()
					}
					return int64(c.Commits)
				})
			} else {
				w, err := workload.NewTPCE(db, ledger, 200, 100)
				if err != nil {
					fatal(err)
				}
				tps = runClients(func(seed int64, stop *atomic.Bool) int64 {
					c := w.NewClient(seed)
					for !stop.Load() {
						burn(*baseCost)
						_ = c.RunOne()
					}
					return int64(c.Commits)
				})
			}
			db.Close()
			if ledger {
				r.ledger = tps
			} else {
				r.regular = tps
			}
			fmt.Printf("  %-6s %-8s %10.0f tx/s\n", wl, mode, tps)
		}
		results[wl] = r
	}
	fmt.Println("\n  Workload | Performance difference   (paper: TPC-C -30.6%, TPC-E -6.9%)")
	for _, wl := range []string{"TPC-C", "TPC-E"} {
		r := results[wl]
		fmt.Printf("  %-8s | %+.1f%%\n", wl, 100*(r.ledger-r.regular)/r.regular)
	}
	fmt.Println()
}

// --- Figure 8 ---------------------------------------------------------------

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
	filler := make([]byte, 210)
	for i := range filler {
		filler[i] = byte('a' + (id+int64(i))%26)
	}
	return sqlledger.Row{
		sqlledger.BigInt(id), sqlledger.BigInt(id * 3), sqlledger.BigInt(id * 7),
		sqlledger.BigInt(id * 11), sqlledger.VarChar(string(filler)),
	}
}

func fig8(base string) {
	fmt.Println("== Figure 8: single-row DML latency, 260-byte rows (µs/op) ==")
	const rows = 5000
	fmt.Printf("  %-8s %-8s %8s %8s %8s %8s\n", "op", "mode", "idx=0", "idx=1", "idx=2", "idx=3")
	for _, op := range []string{"insert", "update", "delete"} {
		for _, mode := range []string{"regular", "ledger"} {
			fmt.Printf("  %-8s %-8s", op, mode)
			for nIdx := 0; nIdx <= 3; nIdx++ {
				db := openDB(base, fmt.Sprintf("fig8-%s-%s-%d", op, mode, nIdx))
				var lt *sqlledger.LedgerTable
				var err error
				if mode == "ledger" {
					lt, err = db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
				} else {
					_, err = db.Engine().CreateTable(regularSpec())
				}
				if err != nil {
					fatal(err)
				}
				for i, col := range []string{"a", "b", "c"}[:nIdx] {
					if _, err := db.Engine().CreateIndex("t", fmt.Sprintf("ix%d", i), col); err != nil {
						fatal(err)
					}
				}
				// Preload for update/delete, plus a warmup region so the
				// measured ops run against warmed structures.
				loadRows(db, lt, rows)
				const warm = 500
				for i := 0; i < warm; i++ {
					doOp(db, lt, "update", int64(i))
				}
				n := rows - warm
				start := time.Now()
				switch op {
				case "insert":
					for i := 0; i < n; i++ {
						doOp(db, lt, op, int64(rows+i))
					}
				default:
					for i := 0; i < n; i++ {
						doOp(db, lt, op, int64(warm+i))
					}
				}
				us := float64(time.Since(start).Microseconds()) / float64(n)
				fmt.Printf(" %8.1f", us)
				db.Close()
			}
			fmt.Println()
		}
	}
	fmt.Println("  (paper deltas on their hardware: insert +~12, delete +~30, update +~40 µs/row)")
	fmt.Println()
}

func loadRows(db *sqlledger.DB, lt *sqlledger.LedgerTable, n int) {
	for i := 0; i < n; i += 100 {
		tx := db.Begin("load")
		for j := 0; j < 100 && i+j < n; j++ {
			id := int64(i + j)
			var err error
			if lt != nil {
				err = tx.Insert(lt, fig8Row(id))
			} else {
				et, terr := db.Engine().Table("t")
				if terr != nil {
					fatal(terr)
				}
				_, err = tx.Raw().Insert(et, fig8Row(id))
			}
			if err != nil {
				fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			fatal(err)
		}
	}
}

func doOp(db *sqlledger.DB, lt *sqlledger.LedgerTable, op string, id int64) {
	tx := db.Begin("bench")
	var err error
	switch {
	case lt != nil && op == "insert":
		err = tx.Insert(lt, fig8Row(id))
	case lt != nil && op == "update":
		r := fig8Row(id)
		r[1] = sqlledger.BigInt(id * 13)
		err = tx.Update(lt, r)
	case lt != nil && op == "delete":
		err = tx.Delete(lt, sqlledger.BigInt(id))
	default:
		et, terr := db.Engine().Table("t")
		if terr != nil {
			fatal(terr)
		}
		switch op {
		case "insert":
			_, err = tx.Raw().Insert(et, fig8Row(id))
		case "update":
			r := fig8Row(id)
			r[1] = sqlledger.BigInt(id * 13)
			_, err = tx.Raw().Update(et, r)
		case "delete":
			_, err = tx.Raw().Delete(et, sqlledger.BigInt(id))
		}
	}
	if err != nil {
		fatal(err)
	}
	if err := tx.Commit(); err != nil {
		fatal(err)
	}
}

// regularSpec is the engine-level spec for the Figure 8 table.
func regularSpec() engine.CreateTableSpec {
	return engine.CreateTableSpec{Name: "t", Schema: fig8Schema()}
}

// --- Figure 9 ---------------------------------------------------------------

func fig9(base string) {
	fmt.Println("== Figure 9: ledger verification time vs. number of transactions ==")
	var sizes []int
	for _, s := range splitComma(*fig9Sizes) {
		var n int
		fmt.Sscanf(s, "%d", &n)
		if n > 0 {
			sizes = append(sizes, n)
		}
	}
	fmt.Printf("  %12s %12s %14s\n", "transactions", "rows", "verify time")
	for _, n := range sizes {
		db := openDB(base, fmt.Sprintf("fig9-%d", n))
		lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
		if err != nil {
			fatal(err)
		}
		id := int64(0)
		for i := 0; i < n; i++ {
			tx := db.Begin("bench")
			for j := 0; j < 5; j++ {
				id++
				if err := tx.Insert(lt, fig8Row(id)); err != nil {
					fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				fatal(err)
			}
		}
		d, err := db.GenerateDigest()
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		rep, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{
			Progress: progressLine(os.Stderr),
		})
		if err != nil {
			fatal(err)
		}
		if !rep.Ok() {
			fatal(fmt.Errorf("verification failed:\n%s", rep))
		}
		fmt.Printf("  %12d %12d %14s\n", n, n*5, time.Since(start).Round(time.Millisecond))
		db.Close()
	}
	fmt.Println("  (paper: time grows linearly with the number of transactions)")
	fmt.Println()
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// --- Blockchain comparison ----------------------------------------------------

func blockchain(base string) {
	fmt.Println("== §4.1.1: SQL Ledger vs. a simulated decentralized ledger ==")
	// SQL Ledger side: TPC-C-like new orders through the ledger.
	db := openDB(base, "bc-sqlledger")
	w, err := workload.NewTPCC(db, true, *warehouses)
	if err != nil {
		fatal(err)
	}
	sqlTPS := runClients(func(seed int64, stop *atomic.Bool) int64 {
		c := w.NewClient(seed)
		for !stop.Load() {
			_ = c.RunOne()
		}
		return int64(c.Commits)
	})
	db.Close()

	// Decentralized side: same 260-byte payloads through consensus. Such
	// systems need massive client concurrency to fill blocks, so the
	// submitter pool is much larger than the SQL Ledger client count.
	chain := simchain.New(simchain.DefaultConfig())
	payload := make([]byte, 260)
	var latSum, latN, chainTotal atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	submitters := *clientsFlag * 64
	start := time.Now()
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				t0 := time.Now()
				if chain.Submit(payload) == nil {
					latSum.Add(int64(time.Since(t0)))
					latN.Add(1)
					chainTotal.Add(1)
				}
			}
		}()
	}
	time.Sleep(*durFlag)
	stop.Store(true)
	wg.Wait()
	chainTPS := float64(chainTotal.Load()) / time.Since(start).Seconds()
	chain.Stop()
	avgLat := time.Duration(0)
	if latN.Load() > 0 {
		avgLat = time.Duration(latSum.Load() / latN.Load())
	}
	fmt.Printf("  SQL Ledger (TPC-C-like):      %10.0f tx/s\n", sqlTPS)
	fmt.Printf("  Simulated consensus ledger:   %10.0f tx/s, avg end-to-end latency %v\n", chainTPS, avgLat.Round(time.Millisecond))
	if chainTPS > 0 {
		fmt.Printf("  Throughput ratio: %.1fx (paper claims >20x vs. Hyperledger Fabric)\n", sqlTPS/chainTPS)
	}
	fmt.Println()
}

// --- Commit scaling -------------------------------------------------------------

// commitScaling measures commit throughput under SyncFull, where every
// write group costs one fsync. Each client runs single-row ledger inserts;
// the interesting columns are commits/s (should scale with clients) and
// fsync/commit (1 for a lone client, well below 1 once groups form).
func commitScaling(base string) {
	fmt.Println("== Commit scaling: group commit (SyncFull) ==")
	fmt.Printf("  %7s %12s %14s %11s\n", "clients", "commits/s", "fsync/commit", "avg group")
	for _, clients := range []int{1, 2, 4, 8} {
		db, err := sqlledger.Open(sqlledger.Options{
			Dir:  filepath.Join(base, fmt.Sprintf("commit-%d", clients)),
			Name: "commit", BlockSize: sqlledger.DefaultBlockSize,
			Sync:        sqlledger.SyncFull,
			LockTimeout: 5 * time.Second,
			Obs:         reg,
		})
		if err != nil {
			fatal(err)
		}
		lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
		if err != nil {
			fatal(err)
		}
		before := reg.Snapshot()
		res := workload.Drive(clients, *durFlag, func(id int) func() error {
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
		after := reg.Snapshot()
		if res.Errors > 0 {
			fatal(fmt.Errorf("commit scaling: %d errors at %d clients: %w", res.Errors, clients, res.Err))
		}
		delta := func(name string) float64 {
			return float64(after.CounterValue(name) - before.CounterValue(name))
		}
		avgGroup := "-"
		if g := delta(obs.WALGroups); g > 0 {
			avgGroup = fmt.Sprintf("%.2f", delta(obs.WALGroupCommits)/g)
		}
		fmt.Printf("  %7d %12.0f %14.3f %11s\n", clients, res.TPS(), delta(obs.WALFsyncTotal)/float64(res.Commits), avgGroup)
		db.Close()
	}
	fmt.Println("  (whichever committer finds no flush in flight writes every queued")
	fmt.Println("   commit with one fsync; §3.3.2's ordinal order is preserved because")
	fmt.Println("   frames are queued in sequence order)")
	fmt.Println()
}

// --- Ingest scaling -------------------------------------------------------------

// ingest measures the bulk-DML fast path: the same fixed row set is
// loaded one row at a time and through InsertBatch at several worker
// counts. Every database runs on a logical clock, so each configuration
// must land on the byte-identical final digest — the speedup comes from
// parallel row hashing alone, never from reordering ledger artifacts.
func ingest(base string) {
	fmt.Println("== Ingest scaling: serial inserts vs. batched parallel hashing ==")
	const rows = 30_000
	const perTx = 1_000
	batches := make([][]sqlledger.Row, 0, rows/perTx)
	for lo := 0; lo < rows; lo += perTx {
		b := make([]sqlledger.Row, perTx)
		for j := range b {
			b[j] = fig8Row(int64(lo + j))
		}
		batches = append(batches, b)
	}
	run := func(name string, workers int) (float64, string) {
		var tick atomic.Int64
		tick.Store(1_700_000_000_000_000_000)
		db, err := sqlledger.Open(sqlledger.Options{
			Dir: filepath.Join(base, "ingest-"+name), Name: "ingest",
			BlockSize:   sqlledger.DefaultBlockSize,
			LockTimeout: 5 * time.Second,
			Obs:         reg,
			Clock:       func() int64 { return tick.Add(1) },
		})
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for _, b := range batches {
			tx := db.Begin("load")
			if workers == 0 {
				for _, r := range b {
					if err := tx.Insert(lt, r); err != nil {
						fatal(err)
					}
				}
			} else if err := tx.InsertBatchParallel(lt, b, workers); err != nil {
				fatal(err)
			}
			if err := tx.Commit(); err != nil {
				fatal(err)
			}
		}
		elapsed := time.Since(start)
		d, err := db.GenerateDigest()
		if err != nil {
			fatal(err)
		}
		return float64(rows) / elapsed.Seconds(), d.Hash
	}
	serialTPS, serialHash := run("serial", 0)
	fmt.Printf("  %-16s %12.0f rows/s\n", "serial", serialTPS)
	for _, w := range []int{1, 2, 4, 8} {
		tps, hash := run(fmt.Sprintf("batch-%dw", w), w)
		if hash != serialHash {
			fatal(fmt.Errorf("ingest: digest mismatch at %d workers: %s != %s", w, hash, serialHash))
		}
		fmt.Printf("  %-16s %12.0f rows/s  (%.2fx, digest identical)\n",
			fmt.Sprintf("batch workers=%d", w), tps, tps/serialTPS)
	}
	fmt.Println("  (rows hash on the worker pool; Merkle appends stay in row order,")
	fmt.Println("   so every configuration produces the same ledger bytes)")
	fmt.Println()
}

// --- Recovery scaling ---------------------------------------------------------

// recoverScaling builds one crash image — a full WAL with no checkpoint,
// closed mid-flight like a killed process — and measures complete restart
// (snapshot load + pipelined replay + install) at 1, 2, 4 and 8 replay
// workers. Every configuration must land on the byte-identical digest:
// parallel redo partitions committed write-sets by key hash, which
// preserves per-key commit-timestamp order, so the recovered state is
// provably the serial replay's state.
func recoverScaling(base string) {
	fmt.Println("== Recovery scaling: pipelined parallel WAL replay ==")
	const rows = 50_000
	const perTx = 1_000
	dir := filepath.Join(base, "recover")
	var tick atomic.Int64
	tick.Store(1_700_000_000_000_000_000)
	db, err := sqlledger.Open(sqlledger.Options{
		Dir: dir, Name: "recover",
		BlockSize:   sqlledger.DefaultBlockSize,
		LockTimeout: 5 * time.Second,
		Obs:         reg,
		Clock:       func() int64 { return tick.Add(1) },
	})
	if err != nil {
		fatal(err)
	}
	lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
	if err != nil {
		fatal(err)
	}
	batch := make([]sqlledger.Row, perTx)
	for lo := 0; lo < rows; lo += perTx {
		for j := range batch {
			batch[j] = fig8Row(int64(lo + j))
		}
		tx := db.Begin("load")
		if err := tx.InsertBatch(lt, batch); err != nil {
			fatal(err)
		}
		if err := tx.Commit(); err != nil {
			fatal(err)
		}
	}
	built, err := db.GenerateDigest()
	if err != nil {
		fatal(err)
	}
	if err := db.Close(); err != nil {
		fatal(err)
	}

	run := func(workers int) (time.Duration, string) {
		var rtick atomic.Int64
		rtick.Store(1_800_000_000_000_000_000)
		start := time.Now()
		rdb, err := sqlledger.Open(sqlledger.Options{
			Dir: dir, Name: "recover",
			BlockSize:       sqlledger.DefaultBlockSize,
			LockTimeout:     5 * time.Second,
			RecoveryWorkers: workers,
			Obs:             reg,
			Clock:           func() int64 { return rtick.Add(1) },
		})
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		d, err := rdb.GenerateDigest()
		if err != nil {
			fatal(err)
		}
		if err := rdb.Close(); err != nil {
			fatal(err)
		}
		return elapsed, d.Hash
	}
	var serial time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		dur, hash := run(w)
		if hash != built.Hash {
			fatal(fmt.Errorf("recover: digest mismatch at %d workers: %s != %s", w, hash, built.Hash))
		}
		if w == 1 {
			serial = dur
		}
		fmt.Printf("  workers=%d  %10v  %12.0f rows/s  (%.2fx, digest identical)\n",
			w, dur.Round(time.Millisecond), float64(rows)/dur.Seconds(), float64(serial)/float64(dur))
	}
	fmt.Println("  (read-ahead + parallel decode feed a key-hash-partitioned redo pool;")
	fmt.Println("   per-key commit order is preserved, so recovered state is byte-identical)")
	fmt.Println()
}

// --- Read scaling -------------------------------------------------------------

// readScaling measures the MVCC snapshot read path: reader clients run
// lock-free snapshot transactions over a preloaded ledger table while two
// writer clients keep the 2PL write path busy with single-row updates.
// Rows-read/s should scale near-linearly with reader count — the write
// path never blocks a reader, and readers never block each other.
func readScaling(base string) {
	fmt.Println("== Read scaling: MVCC snapshot reads with concurrent writers ==")
	const tableRows = 50_000
	const writers = 2
	db := openDB(base, "read")
	defer db.Close()
	w, err := workload.NewReadMostly(db, tableRows)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %7s %7s %14s %12s %10s\n", "readers", "writers", "rows-read/s", "writes/s", "speedup")
	var baseline float64
	for _, readers := range []int{1, 2, 4, 8} {
		var stop atomic.Bool
		var writes atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				op := w.Writer(int64(g + 1))
				for !stop.Load() {
					if op() == nil {
						writes.Add(1)
					}
				}
			}(g)
		}
		readsBefore := w.RowsRead.Load()
		res := workload.Drive(readers, *durFlag, func(id int) func() error {
			return w.Reader(int64(readers*100 + id))
		})
		stop.Store(true)
		wg.Wait()
		if res.Errors > 0 {
			fatal(fmt.Errorf("read scaling: %d errors at %d readers: %w", res.Errors, readers, res.Err))
		}
		rowsPerSec := float64(w.RowsRead.Load()-readsBefore) / res.Elapsed.Seconds()
		writesPerSec := float64(writes.Load()) / res.Elapsed.Seconds()
		if readers == 1 {
			baseline = rowsPerSec
		}
		fmt.Printf("  %7d %7d %14.0f %12.0f %9.2fx\n",
			readers, writers, rowsPerSec, writesPerSec, rowsPerSec/baseline)
	}
	fmt.Println("  (snapshot readers take no row locks; scaling is bounded only by cores)")
	fmt.Println()
}

// --- Shard scaling -------------------------------------------------------------

// shardScaling measures multi-core ingest across N shards under one
// signed super-root. The reproducibility half runs on a logical clock: two
// identical serial runs at 2 shards (every batch committing through 2PC)
// must land on the identical super-root. The throughput half drives a
// fixed 4-client pool of single-shard 1000-row transactions at 1/2/4
// shards; each configuration closes a super-block and verifies every shard
// against it.
func shardScaling(base string) {
	fmt.Println("== Shard scaling: multi-core ingest under one super-root ==")
	const rows = 20_000
	const perTx = 1_000
	const clients = 4
	open := func(name string, shards int) *workload.Ingest {
		var tick atomic.Int64
		tick.Store(1_700_000_000_000_000_000)
		db, err := sqlledger.Open(sqlledger.Options{
			Dir: filepath.Join(base, "shard-"+name), Name: "ingest", Shards: shards,
			BlockSize:   sqlledger.DefaultBlockSize,
			LockTimeout: 5 * time.Second,
			Obs:         reg,
			Clock:       func() int64 { return tick.Add(1) },
		})
		if err != nil {
			fatal(err)
		}
		loader, err := workload.NewIngest(db, "t")
		if err != nil {
			fatal(err)
		}
		return loader
	}

	serialRoot := func(name string) string {
		loader := open(name, 2)
		defer loader.DB.Close()
		if err := loader.LoadSerial(0, rows, perTx, 1); err != nil {
			fatal(err)
		}
		sb, err := loader.DB.CloseSuperBlock()
		if err != nil {
			fatal(err)
		}
		return sb.Root
	}
	rootA, rootB := serialRoot("two-a"), serialRoot("two-b")
	if rootA != rootB {
		fatal(fmt.Errorf("shard: identical 2-shard runs diverged: %s != %s", rootA, rootB))
	}
	fmt.Printf("  2-shard serial super-root reproducible across runs: ok (%s...)\n", rootA[:16])

	fmt.Printf("  %7s %7s %12s %9s %8s\n", "shards", "clients", "rows/s", "speedup", "verify")
	var baseline float64
	for _, shards := range []int{1, 2, 4} {
		loader := open(fmt.Sprintf("perf-%d", shards), shards)
		db := loader.DB
		start := time.Now()
		if err := loader.LoadParallel(0, rows, perTx, clients); err != nil {
			fatal(err)
		}
		rps := float64(rows) / time.Since(start).Seconds()
		sb, err := db.CloseSuperBlock()
		if err != nil {
			fatal(err)
		}
		rep, err := sqlledger.VerifySuperBlock(db, sb, db.PublicKey(), sqlledger.VerifyOptions{})
		if err != nil {
			fatal(err)
		}
		if !rep.Ok() {
			fatal(fmt.Errorf("shard: verification failed at %d shards:\n%s", shards, rep.String()))
		}
		if shards == 1 {
			baseline = rps
		}
		fmt.Printf("  %7d %7d %12.0f %8.2fx %8s\n", shards, clients, rps, rps/baseline, "ok")
		db.Close()
	}
	fmt.Println("  (each shard is an independent engine+WAL+chain; the super-block signs")
	fmt.Println("   one Merkle root over every shard head, so trust stays a single digest)")
	fmt.Println()
}

// --- Naive digest ablation ------------------------------------------------------

func naive(base string) {
	fmt.Println("== §2.2 ablation: incremental digest vs. naive full rehash ==")
	db := openDB(base, "naive")
	lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
	if err != nil {
		fatal(err)
	}
	const rows = 20000
	loadRows(db, lt, rows)
	// Incremental: commit one tx, produce a digest.
	start := time.Now()
	const trials = 50
	for i := 0; i < trials; i++ {
		tx := db.Begin("bench")
		if err := tx.Insert(lt, fig8Row(int64(rows+i))); err != nil {
			fatal(err)
		}
		if err := tx.Commit(); err != nil {
			fatal(err)
		}
		if _, err := db.GenerateDigest(); err != nil {
			fatal(err)
		}
	}
	incr := time.Since(start) / trials
	// Naive: rehash the whole table per digest.
	start = time.Now()
	rep, err := db.Verify(nil, sqlledger.VerifyOptions{Tables: []string{"t"}})
	if err != nil || !rep.Ok() {
		fatal(fmt.Errorf("naive rehash: %v", err))
	}
	full := time.Since(start)
	fmt.Printf("  incremental digest:      %v per digest\n", incr.Round(time.Microsecond))
	fmt.Printf("  naive full rehash (%d rows): %v per digest (%.0fx slower)\n",
		rows, full.Round(time.Microsecond), float64(full)/float64(incr))
	db.Close()
	fmt.Println()
}

// auditBench contrasts the three verification cost models on the same
// ledger: a full rescan (cost grows with total history), the auditor's
// incremental pass over K freshly closed blocks (cost stays flat as the
// ledger grows — the O(K) claim), and a 25% sampling sweep over cold
// history. The incremental column should be ~constant down the table
// while the full-verify column scales with the block count.
func auditBench(base string) {
	fmt.Println("== Always-on audit: full rescan vs incremental vs sampled ==")
	const txPerBlock = 16
	const rowsPerTx = 8
	const deltaBlocks = 8
	const sampleFraction = 0.25
	schema := sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt),
		sqlledger.Col("a", sqlledger.TypeBigInt),
		sqlledger.Col("b", sqlledger.TypeBigInt),
		sqlledger.Col("payload", sqlledger.TypeVarChar),
	}, "id")
	fmt.Printf("  %8s  %12s  %14s  %18s  %12s\n",
		"blocks", "full-verify", "audit-catchup", "incremental(K=8)", "sampled(25%)")
	for _, blocks := range []int{64, 256} {
		var tick atomic.Int64
		tick.Store(1_700_000_000_000_000_000)
		db, err := sqlledger.Open(sqlledger.Options{
			Dir: filepath.Join(base, fmt.Sprintf("audit-%d", blocks)), Name: "audit",
			BlockSize:   txPerBlock,
			LockTimeout: 5 * time.Second,
			Obs:         reg,
			Clock:       func() int64 { return tick.Add(1) },
		})
		if err != nil {
			fatal(err)
		}
		lt, err := db.CreateLedgerTable("t", schema, sqlledger.Updateable)
		if err != nil {
			fatal(err)
		}
		next := int64(0)
		load := func(txs int) {
			for i := 0; i < txs; i++ {
				tx := db.Begin("bench")
				for j := 0; j < rowsPerTx; j++ {
					if err := tx.Insert(lt, workload.IngestRow(next)); err != nil {
						fatal(err)
					}
					next++
				}
				if err := tx.Commit(); err != nil {
					fatal(err)
				}
			}
		}
		load(blocks * txPerBlock)
		if _, err := db.GenerateDigest(); err != nil { // force-close the tail block
			fatal(err)
		}

		start := time.Now()
		rep, err := db.Verify(nil, sqlledger.VerifyOptions{})
		if err != nil || !rep.Ok() {
			fatal(fmt.Errorf("full verify: %v %v", err, rep))
		}
		fullDur := time.Since(start)

		// First cycle: the auditor catches the watermark up from scratch.
		aud, err := db.NewAuditor(sqlledger.AuditorOptions{})
		if err != nil {
			fatal(err)
		}
		start = time.Now()
		st := aud.RunCycle()
		catchup := time.Since(start)
		if !st.Ok {
			fatal(fmt.Errorf("audit catch-up: %v", st.LastReport))
		}

		// Steady state: K new blocks land, one cycle re-verifies only those.
		load(deltaBlocks * txPerBlock)
		if _, err := db.GenerateDigest(); err != nil {
			fatal(err)
		}
		before := st.BlocksCheckedInc
		start = time.Now()
		st = aud.RunCycle()
		incDur := time.Since(start)
		if !st.Ok {
			fatal(fmt.Errorf("audit incremental: %v", st.LastReport))
		}
		if got := st.BlocksCheckedInc - before; got > int64(deltaBlocks)+1 {
			fatal(fmt.Errorf("incremental pass checked %d blocks, want <= %d", got, deltaBlocks+1))
		}

		// A sampling auditor shares the watermark file, so its cycle is
		// almost pure cold-history sweep.
		samp, err := db.NewAuditor(sqlledger.AuditorOptions{SampleFraction: sampleFraction})
		if err != nil {
			fatal(err)
		}
		start = time.Now()
		if st := samp.RunCycle(); !st.Ok {
			fatal(fmt.Errorf("audit sampled: %v", st.LastReport))
		}
		sampDur := time.Since(start)

		fmt.Printf("  %8d  %12v  %14v  %18v  %12v\n",
			blocks, fullDur.Round(time.Microsecond), catchup.Round(time.Microsecond),
			incDur.Round(time.Microsecond), sampDur.Round(time.Microsecond))
		db.Close()
	}
	fmt.Println()
}

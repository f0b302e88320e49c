// Command sqlledger is a small CLI for operating a SQL Ledger database:
// create ledger tables, run DML, inspect ledger views, extract digests,
// verify integrity — and simulate the storage-level tampering the system
// exists to detect.
//
//	sqlledger -db ./bank create accounts name:NVARCHAR:key balance:BIGINT
//	sqlledger -db ./bank insert accounts nick 100
//	sqlledger -db ./bank update accounts nick 50
//	sqlledger -db ./bank delete accounts nick
//	sqlledger -db ./bank select accounts
//	sqlledger -db ./bank view accounts
//	sqlledger -db ./bank digest > digest.json
//	sqlledger -db ./bank verify digest.json [digest2.json ...]
//	sqlledger -db ./bank tamper accounts nick 999999
//	sqlledger -db ./bank tables
//
// With -shards N the same database is hash-partitioned across N shards
// under one signed super-root (pass it on every invocation). Every command
// runs through the same dispatch; the ones that name one chain's artifact
// (digest, receipt, tamper, tables, history, truncate, restore) answer
// with the library's ErrMultiShard — run them on a shard's own directory,
// DIR/shard-NNN, which is a complete one-shard database:
//
//	sqlledger -db ./bank -shards 4 create accounts name:NVARCHAR:key balance:BIGINT
//	sqlledger -db ./bank -shards 4 insert accounts nick 100
//	sqlledger -db ./bank -shards 4 superblock > super.json
//	sqlledger -db ./bank -shards 4 verify-super super.json
package main

import (
	"bufio"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sqlledger"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

var dbDir = flag.String("db", "./ledgerdb", "database directory")
var user = flag.String("user", "cli", "principal recorded for transactions")
var metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/* on this address while the command runs (empty: off)")
var shards = flag.Int("shards", 1, "hash-partition the database across N shards under one signed super-root (give the count the database was created with)")
var auditInterval = flag.Duration("audit-interval", time.Second, "always-on auditor cycle interval (audit, serve)")
var auditSample = flag.Float64("audit-sample", 0, "fraction of cold blocks the auditor re-checks per cycle, 0..1 (audit, serve)")
var checkpointEvery = flag.Duration("checkpoint-every", 0, "take a non-quiescing checkpoint on this interval while serving, bounding restart replay time (serve; 0: off)")
var slowMS = flag.Int("slow-ms", 100, "slow-query threshold in milliseconds: transactions at or above it are always trace-retained and logged to /debug/slow (0: retain every trace)")
var traceSample = flag.Float64("trace-sample", 0.01, "fraction of fast, error-free traces retained, 0..1")

func auditOpts() sqlledger.AuditorOptions {
	return sqlledger.AuditorOptions{Interval: *auditInterval, SampleFraction: *auditSample}
}

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	if args[0] == "repair-wal" { // runs instead of opening: it is for a log Open refuses
		dropped, err := wal.Repair(filepath.Join(*dbDir, "wal.log"))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("repair-wal: dropped %d bytes\n", dropped)
		return
	}
	reg := sqlledger.NewMetricsRegistry()
	reg.Traces().SetSlowThreshold(time.Duration(*slowMS) * time.Millisecond)
	reg.Traces().SetSampleRate(*traceSample)
	db, err := sqlledger.Open(sqlledger.Options{Dir: *dbDir, Shards: *shards, BlockSize: 1000, Obs: reg})
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	defer func() { // per-chain accessors without an error result panic with ErrMultiShard
		r := recover()
		if err, ok := r.(error); ok && errors.Is(err, sqlledger.ErrMultiShard) {
			fatal(err)
		}
		if r != nil {
			panic(r)
		}
	}()
	if *metricsAddr != "" {
		srv, err := db.StartOpsServer(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		stopSampler := sqlledger.StartRuntimeSampler(reg, time.Second)
		defer stopSampler()
		printOpsEndpoints(srv.Addr())
	}

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "create":
		cmdCreate(db, rest)
	case "insert", "update":
		cmdWrite(db, cmd, rest)
	case "delete":
		cmdDelete(db, rest)
	case "select":
		cmdSelect(db, rest)
	case "view":
		cmdView(db, rest)
	case "digest":
		cmdDigest(db)
	case "verify":
		cmdVerify(db, rest)
	case "tamper":
		cmdTamper(db, rest)
	case "tables":
		cmdTables(db)
	case "checkpoint":
		if err := db.Checkpoint(); err != nil {
			fatal(err)
		}
		fmt.Println("checkpoint ok")
	case "receipt":
		cmdReceipt(db, rest)
	case "verify-receipt":
		cmdVerifyReceipt(rest)
	case "truncate":
		cmdTruncate(db, rest)
	case "restore":
		cmdRestore(db, rest)
	case "history":
		cmdHistory(db, rest)
	case "sql":
		cmdSQL(db, rest)
	case "audit":
		cmdAudit(db, rest)
	case "serve":
		cmdServe(db, reg, rest)
	case "superblock":
		sb, err := db.CloseSuperBlock()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(sb.JSON()))
		fmt.Fprintf(os.Stderr, "super-root %s over %d shards, public key %x\n",
			sb.Root, sb.Shards, db.PublicKey())
	case "verify-super":
		cmdVerifySuper(db, rest)
	default:
		usage()
	}
}

// cmdVerifySuper verifies every shard against a signed super-block: the
// one in FILE, or the database's latest.
func cmdVerifySuper(db *sqlledger.DB, args []string) {
	sb := db.LastSuperBlock()
	if len(args) == 1 {
		b, err := os.ReadFile(args[0])
		if err != nil {
			fatal(err)
		}
		if sb, err = sqlledger.ParseSuperBlock(b); err != nil {
			fatal(err)
		}
	} else if len(args) > 1 {
		usage()
	}
	if sb == nil {
		fatal(fmt.Errorf("no super-block yet: run `sqlledger superblock` first"))
	}
	rep, err := sqlledger.VerifySuperBlock(db, sb, db.PublicKey(), sqlledger.VerifyOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep)
	if !rep.Ok() {
		os.Exit(1)
	}
}

// cmdServe runs the operational HTTP server (metrics, health, debug
// endpoints) until a signal arrives — or for a fixed duration when one is
// given, which keeps CI invocations self-terminating. The always-on
// auditor runs alongside it, so /healthz carries a live "verified up to
// block K" claim and flips to 503 when tampering is localized.
func cmdServe(db *sqlledger.DB, reg *sqlledger.MetricsRegistry, args []string) {
	if len(args) < 1 || len(args) > 2 {
		usage()
	}
	opts := auditOpts()
	a, err := db.NewAuditor(opts)
	if err != nil {
		fatal(err)
	}
	a.Start()
	defer a.Stop()
	hc := db.NewHealthChecker(sqlledger.HealthThresholds{MaxVerifiedLag: 10 * opts.Interval})
	srv, err := sqlledger.ServeOps(args[0], db.OpsHandler(hc))
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	stopSampler := sqlledger.StartRuntimeSampler(reg, time.Second)
	defer stopSampler()
	stopCP := startCheckpointTicker(db.Checkpoint)
	defer stopCP()
	printOpsEndpoints(srv.Addr())
	serveWait(args)
}

// startCheckpointTicker runs cp on the -checkpoint-every interval until
// the returned stop function is called. Checkpoints are non-quiescing —
// commits keep flowing while the snapshot streams out — so taking them
// on a timer while serving costs microseconds of write stall and keeps
// restart replay bounded by one interval of WAL.
func startCheckpointTicker(cp func() error) (stop func()) {
	if *checkpointEvery <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(*checkpointEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := cp(); err != nil {
					fmt.Fprintln(os.Stderr, "sqlledger: checkpoint:", err)
				}
			}
		}
	}()
	return func() { close(done) }
}

// serveWait blocks for the optional DURATION argument, or until a
// signal.
func serveWait(args []string) {
	if len(args) == 2 {
		d, err := time.ParseDuration(args[1])
		if err != nil {
			fatal(err)
		}
		time.Sleep(d)
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

// cmdAudit drives the auditor explicitly: with no argument it runs one
// synchronous cycle and prints the status; with a duration it runs the
// background loop that long first. Exits 1 when tampering was localized.
func cmdAudit(db *sqlledger.DB, args []string) {
	if len(args) > 1 {
		usage()
	}
	a, err := db.NewAuditor(auditOpts())
	if err != nil {
		fatal(err)
	}
	var st sqlledger.AuditStatus
	if len(args) == 1 {
		d, err := time.ParseDuration(args[0])
		if err != nil {
			fatal(err)
		}
		a.Start()
		time.Sleep(d)
		a.Stop()
		st = a.Status()
	} else {
		st = a.RunCycle()
	}
	printJSON(st)
	if !st.Ok {
		fmt.Fprintln(os.Stderr, "sqlledger: tampering localized:", st.LastReport)
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func printOpsEndpoints(addr string) {
	fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
	fmt.Fprintf(os.Stderr, "health:  http://%s/healthz\n", addr)
	fmt.Fprintf(os.Stderr, "debug:   http://%s/debug/{ledger,audit,events,trace,slow,pprof}\n", addr)
}

// cmdSQL executes SQL: either the statements given as arguments, or a
// read-eval-print loop over stdin when none are given.
func cmdSQL(db *sqlledger.DB, args []string) {
	s := sqlledger.NewSQLSession(db, *user)
	defer s.Close()
	printResult := func(r *sqlledger.SQLResult) {
		switch {
		case r.Columns != nil:
			for _, c := range r.Columns {
				fmt.Printf("%-20s", c)
			}
			fmt.Println()
			for _, row := range r.Rows {
				for _, v := range row {
					fmt.Printf("%-20s", v.String())
				}
				fmt.Println()
			}
			fmt.Printf("(%d rows)\n", len(r.Rows))
		case r.Message != "":
			fmt.Println(r.Message)
		default:
			fmt.Printf("(%d rows affected)\n", r.RowsAffected)
		}
	}
	if len(args) > 0 {
		results, err := s.ExecScript(strings.Join(args, " "))
		for _, r := range results {
			printResult(r)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	fmt.Fprintln(os.Stderr, "sqlledger SQL shell — end statements with ';', ctrl-D to exit")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if s.InTransaction() {
			fmt.Fprint(os.Stderr, "ledger*> ")
		} else {
			fmt.Fprint(os.Stderr, "ledger> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			results, err := s.ExecScript(buf.String())
			buf.Reset()
			for _, r := range results {
				printResult(r)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		prompt()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sqlledger -db DIR COMMAND [args]
commands:
  create TABLE col:TYPE[:key|:null]...   create an updateable ledger table
  insert TABLE v1 v2 ... [';' v1 v2 ...] insert one or more rows (one tx)
  update TABLE v1 v2 ...                 update the row with that key
  delete TABLE key                       delete by (first) key column
  select TABLE                           print current rows
  view TABLE                             print the ledger view
  digest                                 print a database digest (JSON)
  verify FILE...                         verify against stored digests
  tamper TABLE key value                 storage-level attack simulation
  tables                                 list ledger tables
  history TABLE                          print the history table
  sql [STATEMENTS]                       run SQL (or a REPL on stdin)
  checkpoint                             drain the ledger queue + snapshot
  receipt TXID KEYFILE                   issue a signed receipt (ed25519 seed file)
  verify-receipt FILE PUBKEYHEX          verify a receipt offline
  truncate BEFORE_BLOCK                  delete ledger history below a block
  restore DSTDIR UNIXNANO                point-in-time restore
  repair-wal                             cut DIR/wal.log at the damaged frame that
                                         makes opening fail with "corrupt frame";
                                         every commit from that frame on is lost
  audit [DURATION]                       run the always-on auditor: one cycle, or
                                         a background loop for DURATION; exits 1
                                         when tampering is localized
  serve ADDR [DURATION]                  run the ops HTTP server (/metrics,
                                         /healthz, /debug/ledger, /debug/audit,
                                         /debug/events, /debug/trace,
                                         /debug/pprof) with the auditor running
                                         (-audit-interval, -audit-sample,
                                         -checkpoint-every for periodic
                                         non-quiescing checkpoints)
  superblock                             close + print a signed super-block: the
                                         digest of every shard's digest (JSON)
  verify-super [FILE]                    verify every shard against a super-block
with -shards N the database has N shards: DML routes by primary key, DDL,
sql, verify, audit, serve and checkpoint cover every shard, and digest,
receipt, tamper, tables, history, truncate and restore —
which name one chain — are run on a shard's own directory, DIR/shard-NNN`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqlledger:", err)
	os.Exit(1)
}

func parseType(s string) (sqlledger.TypeID, error) {
	switch strings.ToUpper(s) {
	case "BIT":
		return sqlledger.TypeBit, nil
	case "TINYINT":
		return sqlledger.TypeTinyInt, nil
	case "SMALLINT":
		return sqlledger.TypeSmallInt, nil
	case "INT":
		return sqlledger.TypeInt, nil
	case "BIGINT":
		return sqlledger.TypeBigInt, nil
	case "FLOAT":
		return sqlledger.TypeFloat, nil
	case "VARCHAR":
		return sqlledger.TypeVarChar, nil
	case "NVARCHAR":
		return sqlledger.TypeNVarChar, nil
	case "DATETIME":
		return sqlledger.TypeDateTime, nil
	case "VARBINARY":
		return sqlledger.TypeVarBinary, nil
	default:
		return 0, fmt.Errorf("unsupported type %q", s)
	}
}

// parseTableSpec parses `TABLE col:TYPE[:key|:null]...` arguments into a
// table name and schema.
func parseTableSpec(args []string) (string, *sqlledger.Schema) {
	name := args[0]
	var cols []sqlledger.Column
	var keys []string
	for _, spec := range args[1:] {
		parts := strings.Split(spec, ":")
		if len(parts) < 2 {
			fatal(fmt.Errorf("bad column spec %q (want name:TYPE[:key|:null])", spec))
		}
		t, err := parseType(parts[1])
		if err != nil {
			fatal(err)
		}
		col := sqlledger.Col(parts[0], t)
		for _, mod := range parts[2:] {
			switch mod {
			case "key":
				keys = append(keys, parts[0])
			case "null":
				col.Nullable = true
			default:
				fatal(fmt.Errorf("bad column modifier %q", mod))
			}
		}
		cols = append(cols, col)
	}
	schema, err := sqlledger.NewSchema(cols, keys...)
	if err != nil {
		fatal(err)
	}
	return name, schema
}

func cmdCreate(db *sqlledger.DB, args []string) {
	if len(args) < 2 {
		usage()
	}
	name, schema := parseTableSpec(args)
	if _, err := db.CreateLedgerTable(name, schema, sqlledger.Updateable); err != nil {
		fatal(err)
	}
	fmt.Printf("created updateable ledger table %s (%s)\n", name, schema)
}

func parseValue(col sqlledger.Column, s string) (sqlledger.Value, error) {
	if s == "NULL" {
		return sqlledger.Null(col.Type), nil
	}
	switch col.Type {
	case sqlledger.TypeBit:
		return sqlledger.Bit(s == "1" || strings.EqualFold(s, "true")), nil
	case sqlledger.TypeTinyInt, sqlledger.TypeSmallInt, sqlledger.TypeInt, sqlledger.TypeBigInt:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return sqlledger.Value{}, err
		}
		return sqlledger.Value{Type: col.Type, I64: n}, nil
	case sqlledger.TypeFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return sqlledger.Value{}, err
		}
		return sqlledger.Float(f), nil
	case sqlledger.TypeDateTime:
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return sqlledger.Value{}, err
		}
		return sqlledger.DateTime(t), nil
	case sqlledger.TypeVarChar:
		return sqlledger.VarChar(s), nil
	case sqlledger.TypeNVarChar:
		return sqlledger.NVarChar(s), nil
	case sqlledger.TypeVarBinary:
		return sqlledger.VarBinary([]byte(s)), nil
	}
	return sqlledger.Value{}, fmt.Errorf("cannot parse %q as %s", s, col.Type)
}

func rowFromArgs(lt *sqlledger.LedgerTable, args []string) sqlledger.Row {
	cols := lt.VisibleColumns()
	if len(args) != len(cols) {
		fatal(fmt.Errorf("table %s needs %d values, got %d", lt.Name(), len(cols), len(args)))
	}
	row := make(sqlledger.Row, len(cols))
	for i, c := range cols {
		v, err := parseValue(c, args[i])
		if err != nil {
			fatal(fmt.Errorf("column %s: %v", c.Name, err))
		}
		row[i] = v
	}
	return row
}

// splitRows splits CLI value arguments into per-row groups on literal
// ";" separators: `insert t a 1 ';' b 2` inserts two rows in one
// transaction.
func splitRows(args []string) [][]string {
	var groups [][]string
	cur := []string{}
	for _, a := range args {
		if a == ";" {
			groups = append(groups, cur)
			cur = []string{}
			continue
		}
		cur = append(cur, a)
	}
	return append(groups, cur)
}

func cmdWrite(db *sqlledger.DB, op string, args []string) {
	if len(args) < 2 {
		usage()
	}
	lt, err := db.LedgerTable(args[0])
	if err != nil {
		fatal(err)
	}
	groups := splitRows(args[1:])
	if op != "insert" && len(groups) > 1 {
		fatal(fmt.Errorf("multi-row ';' syntax is only supported for insert"))
	}
	tx := db.Begin(*user)
	if op == "insert" && len(groups) > 1 {
		rows := make([]sqlledger.Row, len(groups))
		for i, g := range groups {
			rows[i] = rowFromArgs(lt, g)
		}
		err = tx.InsertBatch(lt, rows)
	} else if op == "insert" {
		err = tx.Insert(lt, rowFromArgs(lt, groups[0]))
	} else {
		err = tx.Update(lt, rowFromArgs(lt, groups[0]))
	}
	if err != nil {
		tx.Rollback()
		fatal(err)
	}
	if err := tx.Commit(); err != nil {
		fatal(err)
	}
	if len(groups) > 1 {
		fmt.Printf("%s ok (%d rows, %s)\n", op, len(groups), txRef(db, tx))
	} else {
		fmt.Printf("%s ok (%s)\n", op, txRef(db, tx))
	}
}

// txRef names a committed transaction for the user: by its id — what
// `receipt` takes — on a one-shard database; a routed transaction has an
// id on every shard it wrote to and no one name.
func txRef(db *sqlledger.DB, tx *sqlledger.Tx) string {
	if db.NumShards() > 1 {
		return "routed"
	}
	return fmt.Sprintf("tx %d", tx.ID())
}

func cmdDelete(db *sqlledger.DB, args []string) {
	if len(args) != 2 {
		usage()
	}
	lt, err := db.LedgerTable(args[0])
	if err != nil {
		fatal(err)
	}
	keyCol := lt.VisibleColumns()[0]
	kv, err := parseValue(keyCol, args[1])
	if err != nil {
		fatal(err)
	}
	tx := db.Begin(*user)
	if err := tx.Delete(lt, kv); err != nil {
		tx.Rollback()
		fatal(err)
	}
	if err := tx.Commit(); err != nil {
		fatal(err)
	}
	fmt.Printf("delete ok (%s)\n", txRef(db, tx))
}

func cmdSelect(db *sqlledger.DB, args []string) {
	if len(args) != 1 {
		usage()
	}
	lt, err := db.LedgerTable(args[0])
	if err != nil {
		fatal(err)
	}
	cols := lt.VisibleColumns()
	for _, c := range cols {
		fmt.Printf("%-16s", c.Name)
	}
	fmt.Println()
	tx := db.Begin(*user)
	defer tx.Rollback()
	tx.Scan(lt, func(r sqlledger.Row) bool {
		for _, v := range r {
			fmt.Printf("%-16s", v.String())
		}
		fmt.Println()
		return true
	})
}

func cmdView(db *sqlledger.DB, args []string) {
	if len(args) != 1 {
		usage()
	}
	lt, err := db.LedgerTable(args[0])
	if err != nil {
		fatal(err)
	}
	cols := lt.VisibleColumns()
	for _, c := range cols {
		fmt.Printf("%-16s", c.Name)
	}
	fmt.Printf("%-10s %-14s %-20s %s\n", "operation", "transaction", "principal", "committed")
	for _, vr := range lt.LedgerView() {
		for _, v := range vr.Row {
			fmt.Printf("%-16s", v.String())
		}
		who, ts, _, _ := db.Shard(vr.Shard).TransactionInfo(vr.TxID)
		fmt.Printf("%-10s %-14d %-20s %s\n", vr.Operation, vr.TxID, who,
			time.Unix(0, ts).UTC().Format(time.RFC3339))
	}
}

func cmdDigest(db *sqlledger.DB) {
	d, err := db.GenerateDigest()
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(d.JSON()))
}

func cmdVerify(db *sqlledger.DB, files []string) {
	var digests []sqlledger.Digest
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		d, err := sqlledger.ParseDigest(b)
		if err != nil {
			fatal(err)
		}
		digests = append(digests, d)
	}
	rep, err := db.Verify(digests, sqlledger.VerifyOptions{Progress: progressLine(os.Stderr)})
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep)
	if !rep.Ok() {
		os.Exit(1)
	}
}

// progressLine returns a VerifyOptions.Progress callback that renders an
// in-place percentage line on w, cleared once verification completes.
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

func cmdTamper(db *sqlledger.DB, args []string) {
	if len(args) != 3 {
		usage()
	}
	lt, err := db.LedgerTable(args[0])
	if err != nil {
		fatal(err)
	}
	keyCol := lt.VisibleColumns()[0]
	kv, err := parseValue(keyCol, args[1])
	if err != nil {
		fatal(err)
	}
	key := sqltypes.EncodeKey(nil, kv)
	// Find the ordinal of the second visible column to tamper with.
	target := lt.VisibleColumns()[1]
	nv, err := parseValue(target, args[2])
	if err != nil {
		fatal(err)
	}
	err = db.Engine().TamperUpdateRow(lt.Table(), key, func(r sqlledger.Row) sqlledger.Row {
		r[target.Ordinal] = nv
		return r
	}, true)
	if err != nil {
		fatal(err)
	}
	// Tampering bypasses the WAL (like editing data files directly), so
	// persist it via a checkpoint — the attacker flushing their edit.
	if _, err := db.Engine().Checkpoint(); err != nil {
		fatal(err)
	}
	fmt.Printf("tampered %s[%s].%s = %s  -- bypassed the ledger; verification will detect this\n",
		lt.Name(), args[1], target.Name, args[2])
}

func cmdReceipt(db *sqlledger.DB, args []string) {
	if len(args) != 2 {
		usage()
	}
	txID, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		fatal(err)
	}
	// The key file holds a 32-byte ed25519 seed (created if missing).
	seed, err := os.ReadFile(args[1])
	if os.IsNotExist(err) {
		seed = make([]byte, ed25519.SeedSize)
		if _, err := rand.Read(seed); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(args[1], seed, 0o600); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "generated new signing key in %s\n", args[1])
	} else if err != nil {
		fatal(err)
	}
	if len(seed) != ed25519.SeedSize {
		fatal(fmt.Errorf("key file must hold a %d-byte seed", ed25519.SeedSize))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	// Receipts need a closed block.
	if _, err := db.GenerateDigest(); err != nil {
		fatal(err)
	}
	r, err := db.GenerateReceipt(txID, priv)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(r.JSON()))
	fmt.Fprintf(os.Stderr, "public key: %x\n", priv.Public().(ed25519.PublicKey))
}

func cmdVerifyReceipt(args []string) {
	if len(args) != 2 {
		usage()
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		fatal(err)
	}
	r, err := sqlledger.ParseReceipt(b)
	if err != nil {
		fatal(err)
	}
	pub, err := hex.DecodeString(args[1])
	if err != nil || len(pub) != ed25519.PublicKeySize {
		fatal(fmt.Errorf("bad public key"))
	}
	if err := sqlledger.VerifyReceipt(r, ed25519.PublicKey(pub)); err != nil {
		fatal(err)
	}
	fmt.Printf("receipt verifies: tx %d in block %d of %q, principal %q\n",
		r.Entry.TxID, r.BlockID, r.DatabaseName, r.Entry.User)
}

func cmdTruncate(db *sqlledger.DB, args []string) {
	if len(args) != 1 {
		usage()
	}
	before, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		fatal(err)
	}
	if err := db.TruncateLedger(before); err != nil {
		fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		fatal(err)
	}
	fmt.Printf("truncated ledger history below block %d (audited in %s)\n", before, "sys_ledger_truncations")
}

func cmdRestore(db *sqlledger.DB, args []string) {
	if len(args) != 2 {
		usage()
	}
	ts, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		fatal(err)
	}
	if _, err := db.Single(); err != nil { // a restore rewinds one chain's WAL
		fatal(err)
	}
	db.Close() // restore reads the WAL file directly
	if err := sqlledger.RestoreToTime(*dbDir, args[0], ts); err != nil {
		fatal(err)
	}
	fmt.Printf("restored %s as of %s into %s (new incarnation)\n",
		*dbDir, time.Unix(0, ts).UTC().Format(time.RFC3339Nano), args[0])
	os.Exit(0)
}

func cmdHistory(db *sqlledger.DB, args []string) {
	if len(args) != 1 {
		usage()
	}
	lt, err := db.LedgerTable(args[0])
	if err != nil {
		fatal(err)
	}
	if lt.History() == nil {
		fatal(fmt.Errorf("%s is append-only: no history table", args[0]))
	}
	cols := lt.VisibleColumns()
	for _, c := range cols {
		fmt.Printf("%-16s", c.Name)
	}
	fmt.Println()
	lt.History().Scan(func(_ []byte, full sqlledger.Row) bool {
		for _, c := range cols {
			fmt.Printf("%-16s", full[c.Ordinal].String())
		}
		fmt.Println()
		return true
	})
}

func cmdTables(db *sqlledger.DB) {
	fmt.Printf("%-32s %-6s %-12s %s\n", "name", "id", "kind", "rows")
	for _, lt := range db.LedgerTables() {
		fmt.Printf("%-32s %-6d %-12s %d\n", lt.Name(), lt.ID(), lt.Kind(), lt.Table().RowCount())
	}
}

package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sqlledger"
	"sqlledger/internal/btree"
	"sqlledger/internal/merkle"
	"sqlledger/internal/serial"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// kernelParams is what a workload tells the layer kernels about itself,
// so that each layer is timed on that workload's rows, keys and sizes.
type kernelParams struct {
	schema *sqlledger.Schema
	// row draws the i-th sample of the workload's dominant ledger row.
	row func(g *gen, i int64) sqlledger.Row
	// leavesPerTx is how many Merkle leaves a typical transaction of the
	// workload appends to one per-table tree.
	leavesPerTx int
	blockSize   int // transactions per ledger block
	tableRows   int // size of the B-tree the workload's main table is
}

const (
	kernelSamples = 2048
	kernelMinTime = 40 * time.Millisecond
)

// timeLoop calls fn(i) for increasing i until kernelMinTime has passed
// and returns the mean duration of a call.
func timeLoop(fn func(i int)) time.Duration {
	n := 0
	t0 := time.Now()
	for {
		for k := 0; k < 64; k++ {
			fn(n)
			n++
		}
		if d := time.Since(t0); d >= kernelMinTime {
			return d / time.Duration(n)
		}
	}
}

func nsOf(d time.Duration) float64 { return float64(d.Nanoseconds()) }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runKernels times the public functions of serial, merkle, btree, wal
// and sql directly, outside any database, on the workload's data.
func runKernels(m metricSet, cfg *config, workload string, p kernelParams) error {
	if p.schema == nil {
		p = kernelParams{schema: wideSchema(), row: wideRow, leavesPerTx: 7, blockSize: 1000, tableRows: 10000}
	}
	g := newGen(cfg.seed, workload+"/kernel", 0)
	rows := make([]sqlledger.Row, kernelSamples)
	keys := make([][]byte, kernelSamples)
	var bytes int
	for i := range rows {
		rows[i] = p.row(g, int64(i+1))
		keys[i] = sqltypes.EncodeRowKey(p.schema, rows[i])
		bytes += len(serial.SerializeRow(nil, p.schema, rows[i], serial.OpInsert, nil))
	}

	// serial
	var sink merkle.Hash
	d := timeLoop(func(i int) {
		sink = serial.HashRow(p.schema, rows[i%kernelSamples], serial.OpInsert, nil)
	})
	m.set("serial.hash_row_ns", nsOf(d))
	m.set("serial.hash_mb_s", float64(bytes)/kernelSamples/d.Seconds()/1e6)

	// merkle
	leaves := make([]merkle.Hash, p.blockSize)
	for i := range leaves {
		leaves[i] = serial.HashRow(p.schema, rows[i%kernelSamples], serial.OpInsert, nil)
		leaves[i][0] ^= byte(i)
	}
	d = timeLoop(func(int) {
		s := merkle.GetStreaming()
		for k := 0; k < p.leavesPerTx; k++ {
			s.Append(leaves[k%len(leaves)])
		}
		sink = s.Root()
		merkle.PutStreaming(s)
	})
	m.set("merkle.append_ns", nsOf(d)/float64(p.leavesPerTx))
	d = timeLoop(func(int) { sink = merkle.RootOf(leaves) })
	m.set("merkle.root_of_ns_per_leaf", nsOf(d)/float64(len(leaves)))
	root := merkle.RootOf(leaves)
	var proof merkle.Proof
	var perr error
	d = timeLoop(func(i int) { proof, perr = merkle.BuildProof(leaves, uint64(i%len(leaves))) })
	if perr != nil {
		return perr
	}
	m.set("merkle.proof_build_us", usOf(d))
	proof, _ = merkle.BuildProof(leaves, 0) // cannot fail: the loop above just built it
	ok := true
	d = timeLoop(func(int) { ok = ok && proof.Verify(root, leaves[0]) })
	if !ok {
		return fmt.Errorf("merkle kernel: proof did not verify")
	}
	m.set("merkle.proof_verify_us", usOf(d))
	_ = sink

	// btree, at the size of the workload's main table, keyed like it.
	n := p.tableRows
	tkeys := make([][]byte, n)
	for i := range tkeys {
		tkeys[i] = sqltypes.EncodeRowKey(p.schema, p.row(g, int64(i+1)))
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(n)
	tree := btree.New[int]()
	t0 := time.Now()
	for _, i := range order {
		tree.Put(tkeys[i], i)
	}
	m.set("btree.put_ns", nsOf(time.Since(t0))/float64(n))
	found := 0
	d = timeLoop(func(i int) {
		if _, ok := tree.Get(tkeys[order[i%n]]); ok {
			found++
		}
	})
	if found == 0 {
		return fmt.Errorf("btree kernel: no key found")
	}
	m.set("btree.get_ns", nsOf(d))
	t0 = time.Now()
	seen := 0
	tree.Ascend(func([]byte, int) bool { seen++; return true })
	m.set("btree.scan_ns_per_row", nsOf(time.Since(t0))/float64(seen))
	sorted := append([][]byte(nil), tkeys...)
	sort.Slice(sorted, func(i, j int) bool { return string(sorted[i]) < string(sorted[j]) })
	vals := make([]int, n)
	t0 = time.Now()
	built := btree.BuildSorted(sorted, vals)
	m.set("btree.build_sorted_ns_per_key", nsOf(time.Since(t0))/float64(built.Len()))

	if err := walKernels(m, cfg, rows, keys); err != nil {
		return err
	}
	return sqlKernels(m, cfg)
}

// walKernels times the log on the workload's insert payloads.
func walKernels(m metricSet, cfg *config, rows []sqlledger.Row, keys [][]byte) error {
	dir, err := freshDir(cfg, "kernel-wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	payloads := make([][]byte, len(rows))
	var bytes int
	for i := range rows {
		payloads[i] = wal.EncodeDML(wal.RecInsert, wal.DMLPayload{TableID: 7, Key: keys[i], After: rows[i]})
		bytes += len(payloads[i])
	}
	commit := wal.EncodeCommit(wal.CommitPayload{CommitTS: genEpoch, User: "bench"})

	// Append cost and record size: buffered in user space, no flush.
	path := filepath.Join(dir, "append.log")
	l, err := wal.Open(path, wal.SyncNone)
	if err != nil {
		return err
	}
	const records = 100_000
	t0 := time.Now()
	for i := 0; i < records; i++ {
		if _, err := l.Append(wal.RecInsert, uint64(i/8+1), payloads[i%len(payloads)]); err != nil {
			l.Close()
			return err
		}
	}
	m.set("wal.append_ns_per_record", nsOf(time.Since(t0))/records)
	if _, err := l.Append(wal.RecCommit, 1, commit); err != nil {
		l.Close()
		return err
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		return err
	}
	m.set("wal.bytes_per_record", float64(size)/(records+1))

	// Reading it back: the serial reader, then the pipelined one.
	t0 = time.Now()
	rd, err := wal.NewReader(path, 0, -1)
	if err != nil {
		return err
	}
	nread := 0
	for {
		if _, err := rd.Next(); err != nil {
			if err != io.EOF {
				rd.Close()
				return err
			}
			break
		}
		nread++
	}
	rd.Close()
	m.set("wal.read_records_per_s", float64(nread)/time.Since(t0).Seconds())
	t0 = time.Now()
	pr, err := wal.NewPipelinedReader(path, 0, -1, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	npipe := 0
	for {
		if _, err := pr.Next(); err != nil {
			if err != io.EOF {
				pr.Close()
				return err
			}
			break
		}
		npipe++
	}
	pr.Close()
	m.set("wal.pipelined_read_records_per_s", float64(npipe)/time.Since(t0).Seconds())
	if nread != records+1 || npipe != nread {
		return fmt.Errorf("wal kernel: wrote %d records, read %d, pipelined read %d", records+1, nread, npipe)
	}

	// One commit's flush under each durable mode (the sandbox's write
	// and fsync, not a device's).
	for _, mode := range []struct {
		name   string
		sync   wal.SyncMode
		rounds int
	}{{"wal.flush_us", wal.SyncBuffered, 2000}, {"wal.fsync_us", wal.SyncFull, 100}} {
		l, err := wal.Open(filepath.Join(dir, mode.name+".log"), mode.sync)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < mode.rounds; i++ {
			if _, err := l.Append(wal.RecCommit, uint64(i+1), commit); err != nil {
				l.Close()
				return err
			}
		}
		m.set(mode.name, usOf(time.Since(t0))/float64(mode.rounds))
		if err := l.Close(); err != nil {
			return err
		}
	}
	return nil
}

// sqlKernels prices the statement layer none of the workloads goes
// through: single-row statements against the same call through Tx.
func sqlKernels(m metricSet, cfg *config) error {
	dir, err := freshDir(cfg, "kernel-sql")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := storeOptions{}.open(dir)
	if err != nil {
		return err
	}
	defer db.Close()
	sess := sqlledger.NewSQLSession(db, "bench")
	defer sess.Close()
	if _, err := sess.Exec(`CREATE TABLE k_sql (id BIGINT NOT NULL, v BIGINT NOT NULL, s VARCHAR(64) NOT NULL, PRIMARY KEY (id)) WITH (LEDGER = ON)`); err != nil {
		return err
	}
	lt, err := db.CreateLedgerTable("k_tx", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt), sqlledger.Col("v", sqlledger.TypeBigInt),
		sqlledger.VarCol("s", sqlledger.TypeVarChar, 64)}, "id"), sqlledger.Updateable)
	if err != nil {
		return err
	}
	const n = 400
	const text = "sixty bytes of text, give or take, to make the row a row..."
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_, err := sess.Exec(fmt.Sprintf(`INSERT INTO k_sql VALUES (%d, %d, '%s')`, i, i*3, text))
		note(err)
	}
	sqlInsert := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		res, err := sess.Exec(fmt.Sprintf(`SELECT * FROM k_sql WHERE id = %d`, i))
		note(err)
		if err == nil && len(res.Rows) != 1 {
			note(fmt.Errorf("sql kernel: SELECT of id %d returned %d rows", i, len(res.Rows)))
		}
	}
	sqlSelect := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		tx := db.Begin("bench")
		note(tx.Insert(lt, sqlledger.Row{bigint(int64(i)), bigint(int64(i * 3)), sqlledger.VarChar(text)}))
		note(tx.Commit())
	}
	txInsert := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		tx := db.Begin("bench")
		_, ok, err := tx.Get(lt, bigint(int64(i)))
		note(err)
		if err == nil && !ok {
			note(fmt.Errorf("sql kernel: Get of id %d found nothing", i))
		}
		note(tx.Commit())
	}
	txGet := time.Since(t0)
	if firstErr != nil {
		return firstErr
	}
	m.set("sql.exec_insert_us", usOf(sqlInsert)/n)
	m.set("sql.exec_select_us", usOf(sqlSelect)/n)
	m.set("sql.overhead_share", 1-float64(txInsert+txGet)/float64(sqlInsert+sqlSelect))
	return nil
}

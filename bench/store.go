package main

import (
	"crypto/ed25519"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sqlledger"
	"sqlledger/internal/engine"
)

// table is one workload table on one twin. On the ledger twin a table of
// the workload's ledger set is a ledger table (lt); every other table,
// and every table of the regular twin, is a plain engine table (et)
// reached through Tx.Raw(). ledgerSet is the same on both twins, so the
// spans of a ledger-table call and of its regular-table counterpart can
// be matched up.
type table struct {
	name      string
	lt        *sqlledger.LedgerTable
	et        *engine.Table
	ledgerSet bool
}

// store is one database twin.
type store struct {
	db     *sqlledger.DB
	dir    string
	ledger bool
	tables []*table
	// shared marks a second handle on another store's database; closing
	// it only drops the handle.
	shared bool
}

// storeOptions are the database options a workload chooses; everything
// else is the facade default (in particular Sync: SyncBuffered).
type storeOptions struct {
	blockSize       uint32
	sync            sqlledger.SyncMode
	obs             *sqlledger.MetricsRegistry // nil: a private enabled registry
	recoveryWorkers int
}

const (
	dbName      = "bench"
	lockTimeout = 5 * time.Second
)

func (o storeOptions) open(dir string) (*sqlledger.DB, error) {
	return sqlledger.Open(sqlledger.Options{
		Dir: dir, Name: dbName, BlockSize: o.blockSize, Sync: o.sync,
		LockTimeout: lockTimeout, Obs: o.obs, RecoveryWorkers: o.recoveryWorkers,
	})
}

// twinName names the two twins every workload runs.
func twinName(ledger bool) string {
	if ledger {
		return "ledger"
	}
	return "regular"
}

func openStore(dir string, ledger bool, o storeOptions) (*store, error) {
	db, err := o.open(dir)
	if err != nil {
		return nil, err
	}
	return &store{db: db, dir: dir, ledger: ledger}, nil
}

// create adds a table. ledgerSet says whether the workload keeps it in a
// ledger table; the regular twin creates a regular table either way.
func (s *store) create(name string, schema *sqlledger.Schema, ledgerSet bool, kind engine.LedgerKind) (*table, error) {
	t := &table{name: name, ledgerSet: ledgerSet}
	var err error
	if s.ledger && ledgerSet {
		t.lt, err = s.db.CreateLedgerTable(name, schema, kind)
	} else {
		t.et, err = s.db.Engine().CreateTable(engine.CreateTableSpec{Name: name, Schema: schema})
	}
	if err != nil {
		return nil, fmt.Errorf("create table %s: %w", name, err)
	}
	s.tables = append(s.tables, t)
	return t, nil
}

// index adds a nonclustered index on one column.
func (s *store) index(t *table, col string) error {
	_, err := s.db.Engine().CreateIndex(t.name, "ix_"+t.name+"_"+col, col)
	return err
}

// rowCounts returns the live row count of every workload table.
func (s *store) rowCounts() map[string]int {
	out := make(map[string]int, len(s.tables))
	for _, t := range s.tables {
		if t.lt != nil {
			out[t.name] = t.lt.Table().RowCount()
		} else {
			out[t.name] = t.et.RowCount()
		}
	}
	return out
}

func (s *store) close() error {
	if s.db == nil {
		return nil
	}
	if s.shared {
		s.db = nil
		return nil
	}
	err := s.db.Close()
	// Drop every handle into the engine, so that a closed twin's rows are
	// garbage whoever still holds its table descriptors.
	s.db = nil
	for _, t := range s.tables {
		t.lt, t.et = nil, nil
	}
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// rowBytes is the user payload of a row: the sum of its column value
// bytes (fixed width for scalars, length for strings and binaries).
func rowBytes(r sqlledger.Row) int64 {
	var n int
	for _, v := range r {
		switch {
		case v.Null:
		case v.Type.IsString():
			n += len(v.Str)
		case v.Type.IsBytes():
			n += len(v.Bytes)
		default:
			n += v.Type.FixedWidth()
		}
	}
	return int64(n)
}

// client is one closed-loop caller of one twin: a generator, the open
// transaction, and (traced run only) a span recorder. Its methods are
// the benchmark's whole use of the transactional facade; each wraps one
// facade call in one span.
type client struct {
	st  *store
	g   *gen
	rec *recorder

	tx  *sqlledger.Tx
	rtx *sqlledger.ReadTx

	// userBytes counts the column value bytes submitted through
	// Insert/InsertBatch/Update and the key bytes of Deletes.
	userBytes int64
}

func (c *client) start() int64 {
	if c.rec == nil {
		return 0
	}
	return c.rec.now()
}

func (c *client) done(kind spanKind, t0 int64, t *table, rows int) {
	if c.rec == nil {
		return
	}
	core, ls := false, false
	if t != nil {
		core, ls = t.lt != nil, t.ledgerSet
	} else {
		core = c.st.ledger
	}
	c.rec.child(kind, t0, core, ls, rows)
}

func (c *client) begin(user string) {
	t0 := c.start()
	c.tx = c.st.db.Begin(user)
	c.done(kindBegin, t0, nil, 0)
}

func (c *client) commit() error {
	t0 := c.start()
	err := c.tx.Commit()
	c.done(kindCommit, t0, nil, 0)
	if err != nil {
		// A failed commit leaves the transaction open with its locks.
		_ = c.tx.Rollback() // the commit error is the one reported
	}
	c.tx = nil
	return err
}

// abort rolls back the open transaction, if any, after a failed call.
func (c *client) abort() {
	if c.tx != nil {
		_ = c.tx.Rollback() // already failing; the first error is reported
		c.tx = nil
	}
}

// submitted counts a row's payload towards write_amp. Only the untraced
// run reports write_amp, so the traced run skips the counting and keeps
// it out of the gaps between its spans.
func (c *client) submitted(r sqlledger.Row) {
	if c.rec == nil {
		c.userBytes += rowBytes(r)
	}
}

func (c *client) insert(t *table, row sqlledger.Row) error {
	c.submitted(row)
	t0 := c.start()
	var err error
	if t.lt != nil {
		err = c.tx.Insert(t.lt, row)
	} else {
		_, err = c.tx.Raw().Insert(t.et, row)
	}
	c.done(kindInsert, t0, t, 1)
	return err
}

// load inserts rows in one loader transaction of their own.
func (c *client) load(t *table, rows []sqlledger.Row) error {
	c.begin("loader")
	if err := c.insertBatch(t, rows); err != nil {
		c.abort()
		return err
	}
	return c.commit()
}

// insertBatch adds rows in one call: the bulk fast path on a ledger
// table, a plain insert loop on a regular one (which has no batch API).
func (c *client) insertBatch(t *table, rows []sqlledger.Row) error {
	for _, r := range rows {
		c.submitted(r)
	}
	t0 := c.start()
	var err error
	if t.lt != nil {
		err = c.tx.InsertBatch(t.lt, rows)
	} else {
		raw := c.tx.Raw()
		for _, r := range rows {
			if _, err = raw.Insert(t.et, r); err != nil {
				break
			}
		}
	}
	c.done(kindInsertBatch, t0, t, len(rows))
	return err
}

func (c *client) update(t *table, row sqlledger.Row) error {
	c.submitted(row)
	t0 := c.start()
	var err error
	if t.lt != nil {
		err = c.tx.Update(t.lt, row)
	} else {
		_, err = c.tx.Raw().Update(t.et, row)
	}
	c.done(kindUpdate, t0, t, 1)
	return err
}

func (c *client) delete(t *table, key ...sqlledger.Value) error {
	c.submitted(key)
	t0 := c.start()
	var err error
	if t.lt != nil {
		err = c.tx.Delete(t.lt, key...)
	} else {
		_, err = c.tx.Raw().Delete(t.et, key...)
	}
	c.done(kindDelete, t0, t, 1)
	return err
}

// get reads a row that must exist; a missing row is an error, because
// the workloads only ask for keys they or the loader wrote.
func (c *client) get(t *table, key ...sqlledger.Value) (sqlledger.Row, error) {
	row, ok, err := c.lookup(t, key...)
	if err == nil && !ok {
		err = fmt.Errorf("%s: row %v not found", t.name, sqlledger.Row(key))
	}
	return row, err
}

func (c *client) lookup(t *table, key ...sqlledger.Value) (sqlledger.Row, bool, error) {
	t0 := c.start()
	var (
		row sqlledger.Row
		ok  bool
		err error
	)
	if t.lt != nil {
		row, ok, err = c.tx.Get(t.lt, key...)
	} else {
		row, ok, err = c.tx.Raw().Get(t.et, key...)
	}
	c.done(kindGet, t0, t, 1)
	return row, ok, err
}

// scan iterates the rows whose leading key columns equal prefix and
// returns how many rows fn saw.
func (c *client) scan(t *table, fn func(sqlledger.Row) bool, prefix ...sqlledger.Value) (int, error) {
	n := 0
	count := func(r sqlledger.Row) bool { n++; return fn(r) }
	t0 := c.start()
	var err error
	if t.lt != nil {
		err = c.tx.ScanPrefix(t.lt, count, prefix...)
	} else {
		start, end := engine.PrefixRange(prefix...)
		err = c.tx.Raw().ScanRange(t.et, start, end, func(_ []byte, r sqlledger.Row) bool { return count(r) })
	}
	c.done(kindScan, t0, t, n)
	return n, err
}

// Snapshot (read-only) transactions.

func (c *client) snapBegin(forReceipt bool) {
	t0 := c.start()
	if forReceipt && c.st.ledger {
		c.rtx = c.st.db.BeginReadOnlyForReceipt()
	} else {
		c.rtx = c.st.db.BeginReadOnly()
	}
	c.done(kindSnapBegin, t0, nil, 0)
}

func (c *client) snapGet(t *table, key ...sqlledger.Value) (sqlledger.Row, error) {
	t0 := c.start()
	var (
		row sqlledger.Row
		ok  bool
		err error
	)
	if t.lt != nil {
		row, ok, err = c.rtx.Get(t.lt, key...)
	} else {
		row, ok, err = c.rtx.Raw().Get(t.et, key...)
	}
	c.done(kindSnapGet, t0, t, 1)
	if err == nil && !ok {
		err = fmt.Errorf("%s: row %v not in snapshot", t.name, sqlledger.Row(key))
	}
	return row, err
}

func (c *client) snapScan(t *table, prefix ...sqlledger.Value) (int, error) {
	n := 0
	t0 := c.start()
	var err error
	if t.lt != nil {
		err = c.rtx.ScanPrefix(t.lt, func(sqlledger.Row) bool { n++; return true }, prefix...)
	} else {
		start, end := engine.PrefixRange(prefix...)
		err = c.rtx.Raw().ScanRange(t.et, start, end, func([]byte, sqlledger.Row) bool { n++; return true })
	}
	c.done(kindSnapScan, t0, t, n)
	return n, err
}

func (c *client) snapClose() {
	t0 := c.start()
	c.rtx.Close()
	c.rtx = nil
	c.done(kindSnapClose, t0, nil, 0)
}

// snapCloseWithReceipt ends the snapshot with a signed read receipt and
// checks it offline, as a client that wants provable reads would. The
// regular twin has no receipts: it just closes.
func (c *client) snapCloseWithReceipt(priv ed25519.PrivateKey) error {
	if !c.st.ledger {
		c.snapClose()
		return nil
	}
	t0 := c.start()
	receipt, err := c.rtx.CloseWithReceipt(priv)
	if err != nil {
		c.rtx.Close()
	}
	c.rtx = nil
	c.done(kindReadReceipt, t0, nil, len(receipt.Rows))
	if err != nil {
		return err
	}
	t0 = c.start()
	err = sqlledger.VerifyReadReceipt(receipt, priv.Public().(ed25519.PublicKey))
	c.done(kindReadReceiptVerify, t0, nil, len(receipt.Rows))
	return err
}

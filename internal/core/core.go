// Package core implements SQL Ledger itself — the paper's primary
// contribution. It layers on the relational engine:
//
//   - Ledger tables (updateable and append-only) whose schema is extended
//     with four hidden system columns, with historical versions preserved
//     in history tables (§2.1, §3.1).
//   - Row hashing into per-transaction, per-table streaming Merkle trees
//     wired into every DML operation (§3.2).
//   - The database ledger: transaction entries appended to an in-memory
//     queue on the commit path, drained to the sys_ledger_transactions
//     system table at checkpoint, grouped into blocks chained by hash in
//     sys_ledger_blocks (§3.3).
//   - Database digests, verification of the five ledger invariants
//     (§3.4), schema changes (§3.5), digest management across restores
//     (§3.6), transaction receipts (§5.1) and ledger truncation (§5.2).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/merkle"
	"sqlledger/internal/obs"
	"sqlledger/internal/serial"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// Core errors.
var (
	ErrEmptyLedger       = errors.New("core: ledger has no transactions yet")
	ErrAppendOnly        = errors.New("core: table is append-only")
	ErrNotLedgerTable    = errors.New("core: not a ledger table")
	ErrReplicationBehind = errors.New("core: geo-secondary too far behind to issue a digest")
	ErrBlockNotClosed    = errors.New("core: block not closed yet")
)

// DefaultBlockSize is the paper's production block size (§3.3.1).
const DefaultBlockSize = 100_000

// Options configures Open.
type Options struct {
	// Dir is the database directory.
	Dir string
	// Name identifies the database in digests.
	Name string
	// BlockSize is the number of transactions per ledger block
	// (default DefaultBlockSize).
	BlockSize uint32
	// Sync selects WAL durability.
	Sync wal.SyncMode
	// LockTimeout bounds row-lock waits.
	LockTimeout time.Duration
	// ReplicaLag, if set, simulates asynchronous geo-replication: it
	// returns the current replication lag of the secondary. Digest
	// generation only covers data already replicated (§3.6).
	ReplicaLag func() time.Duration
	// MaxReplicaDelay bounds how long digest generation waits for the
	// secondary before failing with ErrReplicationBehind (default 5s).
	MaxReplicaDelay time.Duration
	// Obs receives metrics and spans from every layer of the database:
	// WAL, commit pipeline, block closing, digests and verification. nil
	// creates a private enabled registry; pass obs.Disabled() to turn
	// recording off.
	Obs *obs.Registry
	// Clock, if set, supplies timestamps (unix nanoseconds) for commit
	// ordering, the database incarnation, block closing and digest
	// generation in place of time.Now. A logical clock makes digests
	// byte-for-byte reproducible across runs; nil uses the wall clock.
	Clock func() int64
	// RecoveryWorkers sets crash-recovery parallelism: log read-ahead on
	// or off, and how many tables install replayed rows at once
	// (engine.Options.RecoveryWorkers). 0 means one per CPU; 1 runs
	// recovery with no goroutines.
	RecoveryWorkers int
}

// System table names.
const (
	sysTxName       = "sys_ledger_transactions"
	sysBlocksName   = "sys_ledger_blocks"
	sysViewsName    = "sys_ledger_views"
	sysTableMetaN   = "sys_ledger_table_meta"
	sysColumnMetaN  = "sys_ledger_column_meta"
	sysTruncationsN = "sys_ledger_truncations"
	sysTxBlockIndex = "ix_sys_ledger_transactions_block"
)

// Hidden ledger column names (§3.1).
const (
	ColStartTx  = "ledger_start_transaction_id"
	ColStartSeq = "ledger_start_sequence_number"
	ColEndTx    = "ledger_end_transaction_id"
	ColEndSeq   = "ledger_end_sequence_number"
)

// DB is a database with SQL Ledger enabled: one engine, one WAL and one
// chain of blocks, with its digests (§3.3).
type DB struct {
	opts Options
	edb  *engine.DB

	entries   *entryStore
	sysBlocks *engine.Table
	sysViews  *engine.Table

	metaTables  *LedgerTable
	metaColumns *LedgerTable
	truncations *LedgerTable

	// closeMu makes block closing single-threaded (§3.3.2).
	closeMu       sync.Mutex
	closedThrough int64 // highest block id persisted to sys_ledger_blocks; -1 = none
	prevHash      merkle.Hash

	// pmu guards what proofs keep: frames[block][ordinal] is the LSN of the
	// frame holding that transaction's DML, 0 while unknown (frames.go);
	// proven holds the closed blocks receipts prove from (blockProofs).
	pmu    sync.Mutex
	frames map[uint64][]int64
	proven map[uint64]provenBlock
	// prefixMu serializes the one pass over the log prefix (framesBefore).
	prefixMu   sync.Mutex
	prefixDone bool

	tmu    sync.RWMutex
	tables map[uint32]*LedgerTable // by base table id

	// healthMu guards the operability marks read by the HealthChecker.
	healthMu   sync.Mutex
	lastUpload uploadMark
	lastVerify verifyMark

	// auditor is the registered always-on Auditor, if any; HealthChecker
	// and /debug/audit read its status through this pointer.
	auditor atomic.Pointer[Auditor]

	doneCh   chan struct{}
	closedDB atomic.Bool

	obs *obs.Registry
	m   ledgerMetrics
}

// hashBatchBuckets sizes the hash_batch_size histogram: batch row counts
// from single-row DML up to bulk loads.
var hashBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// ledgerMetrics holds the core's metric handles, resolved once at Open.
type ledgerMetrics struct {
	rowsHashed        *obs.Counter
	hashBatchSize     *obs.Histogram
	blocksClosed      *obs.Counter
	blockCloseSeconds *obs.Histogram
	verifyProgress    *obs.Gauge
}

func bindLedgerMetrics(reg *obs.Registry) ledgerMetrics {
	return ledgerMetrics{
		rowsHashed:        reg.Counter(obs.RowsHashedTotal),
		hashBatchSize:     reg.Histogram(obs.HashBatchSize, hashBatchBuckets),
		blocksClosed:      reg.Counter(obs.BlocksClosedTotal),
		blockCloseSeconds: reg.Histogram(obs.BlockCloseSeconds, nil),
		verifyProgress:    reg.Gauge(obs.VerifyProgressRatio),
	}
}

// ledgerHook receives engine callbacks. It exists separately from DB
// because recovery runs inside engine.Open, before the DB is wired.
type ledgerHook struct {
	db        *DB
	recovered []*wal.LedgerEntry
	frames    []int64 // of recovered
}

func (h *ledgerHook) OnCommit(txID uint64, commitTS int64, user string, roots []wal.TableRoot) wal.LedgerEntry {
	return h.db.entries.assign(txID, commitTS, user, roots)
}

func (h *ledgerHook) Logged(block uint64, ord uint32, lsn int64) { h.db.noteFrame(block, ord, lsn) }

func (h *ledgerHook) BeforeSnapshot() { h.db.entries.drain() }

func (h *ledgerHook) Recovered(entries []*wal.LedgerEntry, frames []int64) {
	h.recovered, h.frames = entries, frames
}

// multiShardFiles are what a multi-shard database kept in its directory:
// the first shard's subdirectory and the two-phase commit decision log.
// Either one marks a layout Open refuses: opening the directory as it is
// would start a fresh, empty database beside the old data.
var multiShardFiles = []string{"shard-000", "2pc.log"}

// refuseMultiShard fails, naming the file, when dir holds a multi-shard
// database. It only looks: nothing is created or written.
func refuseMultiShard(dir string) error {
	for _, name := range multiShardFiles {
		path := filepath.Join(dir, name)
		_, err := os.Lstat(path)
		switch {
		case err == nil:
			return fmt.Errorf("core: %s belongs to a multi-shard database, a layout this build does not open", path)
		case !errors.Is(err, fs.ErrNotExist):
			return err
		}
	}
	return nil
}

// Open opens (creating if necessary) the ledger database in Options.Dir.
// A directory in a layout this build no longer opens — a multi-shard
// database's — is refused before any file is created or written.
func Open(opts Options) (*DB, error) {
	if opts.BlockSize == 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.MaxReplicaDelay == 0 {
		opts.MaxReplicaDelay = 5 * time.Second
	}
	if opts.Name == "" {
		opts.Name = filepath.Base(opts.Dir)
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	if err := refuseMultiShard(opts.Dir); err != nil {
		return nil, err
	}
	h := &ledgerHook{}
	edb, err := engine.Open(engine.Options{
		Dir:             opts.Dir,
		Sync:            opts.Sync,
		LockTimeout:     opts.LockTimeout,
		Hook:            h,
		Obs:             opts.Obs,
		Clock:           opts.Clock,
		RecoveryWorkers: opts.RecoveryWorkers,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		opts:          opts,
		edb:           edb,
		closedThrough: -1,
		frames:        make(map[uint64][]int64),
		proven:        make(map[uint64]provenBlock),
		tables:        make(map[uint32]*LedgerTable),
		doneCh:        make(chan struct{}),
		obs:           opts.Obs,
		m:             bindLedgerMetrics(opts.Obs),
		lastUpload:    uploadMark{block: -1},
	}
	h.db = db
	if err := db.bootstrap(); err != nil {
		edb.Close()
		return nil, err
	}
	// The highest closed block and its hash, then the queue: the entries
	// whose COMMIT records were replayed but that the system table lacks.
	// This scan and restore's index lookup decode rows, which panics on
	// bytes that are no row, but at Open there are none: every row came in
	// through redo, which takes only bytes past sqltypes.CheckRow, or from
	// EncodeRow, and DecodeRowAlias reads every such row.
	db.sysBlocks.Scan(func(_ []byte, r sqltypes.Row) bool {
		if b := r[0].Int(); b > db.closedThrough {
			db.closedThrough, db.prevHash = b, blockHashOfRow(r)
		}
		return true
	})
	if err := db.entries.restore(h.recovered, db.closedThrough); err != nil {
		edb.Close()
		return nil, err
	}
	for i, e := range h.recovered {
		db.noteFrame(e.BlockID, e.Ordinal, h.frames[i])
	}
	h.recovered, h.frames = nil, nil
	go db.blockCloser()
	return db, nil
}

// Close stops background work and closes the engine (idempotent). A
// started auditor loop is stopped first — waiting for a cycle in flight —
// so no cycle ever runs against a closed engine.
func (db *DB) Close() error {
	if a := db.Auditor(); a != nil {
		a.Stop()
	}
	if !db.closedDB.CompareAndSwap(false, true) {
		return nil
	}
	close(db.doneCh)
	return db.edb.Close()
}

// Engine exposes the underlying relational engine (regular tables,
// indexes, checkpointing, tamper simulation).
func (db *DB) Engine() *engine.DB { return db.edb }

// Name returns the name the database's digests carry.
func (db *DB) Name() string { return db.opts.Name }

// Incarnation returns the database create time (unix nanoseconds), the
// one in its log's header; it changes when the database is restored to a
// point in time (§3.6).
func (db *DB) Incarnation() int64 { return db.edb.CreateTime() }

// Obs returns the database's metrics registry.
func (db *DB) Obs() *obs.Registry { return db.obs }

// Snapshot returns a point-in-time copy of every metric the database has
// recorded: WAL appends and fsyncs, group-commit batching, the four
// commit stages, lock waits, block closing, digests and verification.
func (db *DB) Snapshot() obs.Snapshot { return db.obs.Snapshot() }

// Checkpoint drains the ledger queue into the system tables and writes an
// engine snapshot (§3.3.2).
func (db *DB) Checkpoint() error {
	_, err := db.edb.Checkpoint()
	return err
}

// nowNanos returns the current time from Options.Clock, or the wall
// clock when none is configured.
func (db *DB) nowNanos() int64 {
	if db.opts.Clock != nil {
		return db.opts.Clock()
	}
	return time.Now().UnixNano()
}

// --- Bootstrap ---------------------------------------------------------

var sysBlocksSchema = sqltypes.MustSchema([]sqltypes.Column{
	sqltypes.Col("block_id", sqltypes.TypeBigInt),
	sqltypes.Col("previous_block_hash", sqltypes.TypeBinary),
	sqltypes.Col("transactions_root_hash", sqltypes.TypeBinary),
	sqltypes.Col("transaction_count", sqltypes.TypeBigInt),
	sqltypes.Col("closed_ts", sqltypes.TypeDateTime),
}, "block_id")

var sysViewsSchema = sqltypes.MustSchema([]sqltypes.Column{
	sqltypes.Col("table_id", sqltypes.TypeBigInt),
	sqltypes.Col("definition", sqltypes.TypeNVarChar),
}, "table_id")

func (db *DB) bootstrap() error {
	var err error
	ensure := func(name string, schema *sqltypes.Schema) *engine.Table {
		if err != nil {
			return nil
		}
		if t, terr := db.edb.Table(name); terr == nil {
			return t
		}
		var t *engine.Table
		t, err = db.edb.CreateTable(engine.CreateTableSpec{Name: name, Schema: schema, System: true})
		return t
	}
	sysTx := ensure(sysTxName, sysTxSchema)
	db.sysBlocks = ensure(sysBlocksName, sysBlocksSchema)
	db.sysViews = ensure(sysViewsName, sysViewsSchema)
	if err != nil {
		return err
	}
	if db.entries, err = newEntryStore(db.edb, sysTx, db.opts.BlockSize); err != nil {
		return err
	}

	// Ledger system tables tracking table/column metadata (§3.5.2) and
	// truncation events (§5.2). They are themselves ledger tables; their
	// own metadata is not self-registered to avoid recursion.
	metaTablesSchema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("table_id", sqltypes.TypeBigInt),
		sqltypes.Col("table_name", sqltypes.TypeNVarChar),
		sqltypes.Col("ledger_kind", sqltypes.TypeNVarChar),
		sqltypes.NullableCol("history_table_id", sqltypes.TypeBigInt),
	}, "table_id")
	metaColumnsSchema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("table_id", sqltypes.TypeBigInt),
		sqltypes.Col("column_ordinal", sqltypes.TypeBigInt),
		sqltypes.Col("column_name", sqltypes.TypeNVarChar),
		sqltypes.Col("column_type", sqltypes.TypeNVarChar),
		sqltypes.Col("nullable", sqltypes.TypeBit),
	}, "table_id", "column_ordinal")
	truncSchema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("truncation_id", sqltypes.TypeBigInt),
		sqltypes.Col("before_block", sqltypes.TypeBigInt),
		sqltypes.Col("max_truncated_tx", sqltypes.TypeBigInt),
		sqltypes.Col("performed_ts", sqltypes.TypeDateTime),
	}, "truncation_id")

	mk := func(name string, schema *sqltypes.Schema, kind engine.LedgerKind) *LedgerTable {
		if err != nil {
			return nil
		}
		if t, terr := db.edb.Table(name); terr == nil {
			var lt *LedgerTable
			lt, err = db.wrapLedgerTable(t)
			return lt
		}
		var lt *LedgerTable
		lt, err = db.createLedgerTable(name, schema, kind, true)
		return lt
	}
	db.metaTables = mk(sysTableMetaN, metaTablesSchema, engine.LedgerUpdateable)
	db.metaColumns = mk(sysColumnMetaN, metaColumnsSchema, engine.LedgerUpdateable)
	db.truncations = mk(sysTruncationsN, truncSchema, engine.LedgerAppendOnly)
	if err != nil {
		return err
	}

	// Wrap every pre-existing ledger table from the catalog (reopen path).
	for _, t := range db.edb.Tables() {
		m := t.Meta()
		if m.Ledger == engine.LedgerUpdateable || m.Ledger == engine.LedgerAppendOnly {
			if _, ok := db.tables[m.ID]; !ok {
				if _, werr := db.wrapLedgerTable(t); werr != nil {
					return werr
				}
			}
		}
	}
	return nil
}

// blockCloseInterval is how often the background closer sweeps for filled
// blocks. The sweep keeps block closing fully off the commit path: commits
// only advance counters, and anything that needs blocks closed *now*
// (digest generation) calls closeBlocksThrough synchronously itself.
const blockCloseInterval = 25 * time.Millisecond

// blockCloser is the single background goroutine that closes filled
// blocks (§3.3.2: "this operation is single-threaded ... and happens
// asynchronously"). Every block below the open one has all its ordinals
// assigned, so the sweep target is always safe to close.
func (db *DB) blockCloser() {
	ticker := time.NewTicker(blockCloseInterval)
	defer ticker.Stop()
	for {
		select {
		case <-db.doneCh:
			return
		case <-ticker.C:
			open, _, _ := db.entries.position()
			if target := int64(open) - 1; target >= 0 {
				_ = db.closeBlocksThrough(target, false)
			}
		}
	}
}

// closeBlocksThrough closes every open block with id <= target, in order;
// with keep, for a receipt about to prove entries in them, it keeps the
// entry hashes it computes (blockProofs).
func (db *DB) closeBlocksThrough(target int64, keep bool) error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	for b := db.closedThrough + 1; b <= target; b++ {
		if err := db.closeOneBlock(b, keep); err != nil {
			return err
		}
	}
	return nil
}

// closeOneBlock closes block b. Caller holds closeMu and guarantees
// every previous block is closed.
func (db *DB) closeOneBlock(b int64, keep bool) (err error) {
	start := time.Now()
	tr := db.obs.NewTrace("close_block")
	tr.SetAttr("block", strconv.FormatInt(b, 10))
	defer func() {
		tr.Finish(err)
		if err == nil {
			db.m.blockCloseSeconds.ObserveSince(start)
			db.m.blocksClosed.Inc()
		}
	}()
	entries, err := db.entries.ofBlock(uint64(b))
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("core: block %d has no transactions to close", b)
	}
	leaves, contiguous := entryLeaves(make([]merkle.Hash, 0, len(entries)), entries)
	if !contiguous {
		return fmt.Errorf("core: block %d has a gap in ordinals 0..%d", b, len(entries)-1)
	}
	level := merkle.LevelOf(leaves, provenLevel)
	root := merkle.RootOf(level) // what is above level 4 is a function of it
	row := sqltypes.Row{
		sqltypes.NewBigInt(b),
		sqltypes.NewBinary(append([]byte(nil), db.prevHash[:]...)),
		sqltypes.NewBinary(append([]byte(nil), root[:]...)),
		sqltypes.NewBigInt(int64(len(entries))),
		sqltypes.Value{Type: sqltypes.TypeDateTime, I64: db.nowNanos()},
	}
	// Persisting the closed block is a regular, WAL-logged table
	// update, so its durability is guaranteed by the engine.
	tx := db.edb.Begin("system")
	if _, err := tx.Insert(db.sysBlocks, row); err != nil {
		tx.Rollback()
		return err
	}
	if _, err := db.edb.Commit(tx); err != nil {
		return err
	}
	db.prevHash = blockHashOfRow(row)
	db.closedThrough = b
	if keep {
		db.keepProven(uint64(b), provenBlock{leaves, level})
	}
	db.obs.Events().Info(obs.EventBlockClosed,
		"block", b, "transactions", len(entries), "hash", db.prevHash.String())
	return nil
}

// --- Entry and block hashing --------------------------------------------

func u64le(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// entryHash is the canonical hash of a transaction entry — the leaf of the
// per-block transactions Merkle tree (§3.3.1).
func entryHash(e *wal.LedgerEntry) merkle.Hash {
	var roots [4 * (binary.MaxVarintLen32 + len(merkle.Hash{}))]byte // four tables' worth stays off the heap
	return serial.HashBytes(
		u64le(e.TxID),
		u64le(e.BlockID),
		u64le(uint64(e.Ordinal)),
		u64le(uint64(e.CommitTS)),
		[]byte(e.User),
		appendRootsBlob(roots[:0], e.Roots),
	)
}

// blockHashOfRow is the canonical hash of a sys_ledger_blocks row — the
// value digests capture and the "previous block hash" of the next block.
func blockHashOfRow(r sqltypes.Row) merkle.Hash {
	return serial.HashBytes(
		u64le(uint64(r[0].Int())), // block id
		r[1].Bytes,                // previous block hash
		r[2].Bytes,                // transactions root
		u64le(uint64(r[3].Int())), // transaction count
		u64le(uint64(r[4].Int())), // closed ts
	)
}

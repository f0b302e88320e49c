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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
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
	// Shards hash-partitions the ledger by primary key across N shards —
	// each its own engine, WAL and block chain in a shard-NNN
	// subdirectory — under one signed super-block root. 0 and 1 mean one
	// shard living directly in Dir, the layout of databases created before
	// sharding existed. A database must be reopened with the shard count
	// it was created with.
	Shards int
	// VersionGCInterval overrides the engine's background version-GC
	// sweep pace (zero: engine default, 250ms). A multi-shard open staggers
	// it per shard so N engines on one box don't tick in lockstep.
	VersionGCInterval time.Duration
	// RecoveryWorkers sets crash-recovery parallelism (WAL decode and
	// redo apply pools, snapshot section codecs). 0 means one per CPU;
	// 1 forces serial replay.
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

// Shard is one chain of a ledger database: one engine, one WAL, one block
// chain with its own digests. A DB routes and fans out over its shards;
// what names a single chain's artifact (a digest, a receipt, a transaction
// id, the engine) is an operation of the Shard, reached as DB.Shard(i).
type Shard struct {
	opts Options
	edb  *engine.DB
	hook *ledgerHook

	sysTx     *engine.Table
	sysBlocks *engine.Table
	sysViews  *engine.Table
	txByBlock *engine.Index

	metaTables  *LedgerTable
	metaColumns *LedgerTable
	truncations *LedgerTable

	// lmu guards block/ordinal assignment and the in-memory queue.
	lmu        sync.Mutex
	queue      []*wal.LedgerEntry
	curBlock   uint64
	curOrdinal uint32

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

	incarnation int64 // database create time; changes on restore (§3.6)

	// healthMu guards the operability marks read by the HealthChecker.
	healthMu   sync.Mutex
	lastUpload uploadMark
	lastVerify verifyMark

	doneCh   chan struct{}
	closedDB bool

	obs *obs.Registry
	m   ledgerMetrics
}

// hashBatchBuckets sizes the hash_batch_size histogram: batch row counts
// from single-row DML up to bulk loads.
var hashBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// ledgerMetrics holds the core's metric handles, resolved once at Open.
type ledgerMetrics struct {
	rowsHashed          *obs.Counter
	hashBatchSize       *obs.Histogram
	blocksClosed        *obs.Counter
	blockCloseSeconds   *obs.Histogram
	queueLength         *obs.Gauge
	digests             *obs.Counter
	digestSeconds       *obs.Histogram
	digestUploads       *obs.Counter
	digestUploadSeconds *obs.Histogram
	verifies            *obs.Counter
	verifyIssues        *obs.Counter
	verifyProgress      *obs.Gauge
	verifyChain         *obs.Histogram
	verifyRowVersions   *obs.Histogram
	verifyIndexes       *obs.Histogram
	verifyViews         *obs.Histogram
	verifyTotal         *obs.Histogram
}

func bindLedgerMetrics(reg *obs.Registry) ledgerMetrics {
	phase := func(p string) *obs.Histogram {
		return reg.Histogram(obs.VerifyPhaseSeconds, nil, obs.L("phase", p))
	}
	return ledgerMetrics{
		rowsHashed:          reg.Counter(obs.RowsHashedTotal),
		hashBatchSize:       reg.Histogram(obs.HashBatchSize, hashBatchBuckets),
		blocksClosed:        reg.Counter(obs.BlocksClosedTotal),
		blockCloseSeconds:   reg.Histogram(obs.BlockCloseSeconds, nil),
		queueLength:         reg.Gauge(obs.LedgerQueueLength),
		digests:             reg.Counter(obs.DigestTotal),
		digestSeconds:       reg.Histogram(obs.DigestGenerateSeconds, nil),
		digestUploads:       reg.Counter(obs.DigestUploadTotal),
		digestUploadSeconds: reg.Histogram(obs.DigestUploadSeconds, nil),
		verifies:            reg.Counter(obs.VerifyTotal),
		verifyIssues:        reg.Counter(obs.VerifyIssuesTotal),
		verifyProgress:      reg.Gauge(obs.VerifyProgressRatio),
		verifyChain:         phase("chain"),
		verifyRowVersions:   phase("row_versions"),
		verifyIndexes:       phase("indexes"),
		verifyViews:         phase("views"),
		verifyTotal:         phase("total"),
	}
}

// ledgerHook receives engine callbacks. It exists separately from Shard
// because recovery runs inside engine.Open, before the Shard is wired.
type ledgerHook struct {
	l         *Shard
	recovered []*wal.LedgerEntry
	frames    []int64 // of recovered
}

func (h *ledgerHook) OnCommit(txID uint64, commitTS int64, user string, roots []wal.TableRoot) (uint64, uint32) {
	return h.l.assignBlock(txID, commitTS, user, roots)
}

func (h *ledgerHook) Logged(block uint64, ord uint32, lsn int64) { h.l.noteFrame(block, ord, lsn) }

func (h *ledgerHook) BeforeSnapshot() {
	if h.l != nil {
		h.l.drainQueueLocked()
	}
}

func (h *ledgerHook) Recovered(entries []*wal.LedgerEntry, frames []int64) {
	h.recovered, h.frames = entries, frames
}

// openShard opens (creating if necessary) the shard in opts.Dir, named
// opts.Name in its digests; Open has filled in the option defaults.
func openShard(opts Options) (*Shard, error) {
	h := &ledgerHook{}
	edb, err := engine.Open(engine.Options{
		Dir:               opts.Dir,
		Sync:              opts.Sync,
		LockTimeout:       opts.LockTimeout,
		Hook:              h,
		Obs:               opts.Obs,
		Clock:             opts.Clock,
		VersionGCInterval: opts.VersionGCInterval,
		RecoveryWorkers:   opts.RecoveryWorkers,
	})
	if err != nil {
		return nil, err
	}
	l := &Shard{
		opts:          opts,
		edb:           edb,
		hook:          h,
		closedThrough: -1,
		frames:        make(map[uint64][]int64),
		proven:        make(map[uint64]provenBlock),
		tables:        make(map[uint32]*LedgerTable),
		doneCh:        make(chan struct{}),
		obs:           opts.Obs,
		m:             bindLedgerMetrics(opts.Obs),
		lastUpload:    uploadMark{block: -1},
	}
	h.l = l
	if err := l.loadIncarnation(); err != nil {
		edb.Close()
		return nil, err
	}
	if err := l.bootstrap(); err != nil {
		edb.Close()
		return nil, err
	}
	if err := l.reconcile(h.recovered); err != nil {
		edb.Close()
		return nil, err
	}
	for i, e := range h.recovered {
		l.noteFrame(e.BlockID, e.Ordinal, h.frames[i])
	}
	h.recovered, h.frames = nil, nil
	go l.blockCloser()
	return l, nil
}

// close stops the block closer and closes the engine (idempotent).
func (l *Shard) close() error {
	l.lmu.Lock()
	if l.closedDB {
		l.lmu.Unlock()
		return nil
	}
	l.closedDB = true
	l.lmu.Unlock()
	close(l.doneCh)
	return l.edb.Close()
}

// Engine exposes the shard's relational engine (regular tables, indexes,
// checkpointing, tamper simulation).
func (l *Shard) Engine() *engine.DB { return l.edb }

// Name returns the name the shard's digests carry: the database's own on
// a one-shard database, "<database>/shard-NNN" otherwise.
func (l *Shard) Name() string { return l.opts.Name }

// Incarnation returns the database create time (unix nanoseconds); it
// changes when the database is restored to a point in time.
func (l *Shard) Incarnation() int64 { return l.incarnation }

// Checkpoint drains the ledger queue into the system tables and writes an
// engine snapshot (§3.3.2).
func (l *Shard) Checkpoint() error {
	_, err := l.edb.Checkpoint()
	return err
}

const incarnationFile = "createtime"

// nowNanos returns the current time from Options.Clock, or the wall
// clock when none is configured.
func (l *Shard) nowNanos() int64 {
	if l.opts.Clock != nil {
		return l.opts.Clock()
	}
	return time.Now().UnixNano()
}

func (l *Shard) loadIncarnation() error {
	p := filepath.Join(l.opts.Dir, incarnationFile)
	b, err := os.ReadFile(p)
	if err == nil {
		v, perr := strconv.ParseInt(string(b), 10, 64)
		if perr != nil {
			return fmt.Errorf("core: bad incarnation file: %w", perr)
		}
		l.incarnation = v
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	l.incarnation = l.nowNanos()
	if werr := os.WriteFile(p, []byte(strconv.FormatInt(l.incarnation, 10)), 0o644); werr != nil {
		return werr
	}
	l.obs.Events().Info(obs.EventIncarnation, "incarnation", l.incarnation, "dir", l.opts.Dir)
	return nil
}

// --- Bootstrap ---------------------------------------------------------

var sysTxSchema = sqltypes.MustSchema([]sqltypes.Column{
	sqltypes.Col("transaction_id", sqltypes.TypeBigInt),
	sqltypes.Col("block_id", sqltypes.TypeBigInt),
	sqltypes.Col("ordinal_in_block", sqltypes.TypeBigInt),
	sqltypes.Col("commit_ts", sqltypes.TypeDateTime),
	sqltypes.Col("principal", sqltypes.TypeNVarChar),
	sqltypes.Col("table_hashes", sqltypes.TypeVarBinary),
}, "transaction_id")

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

func (l *Shard) bootstrap() error {
	var err error
	ensure := func(name string, schema *sqltypes.Schema) *engine.Table {
		if err != nil {
			return nil
		}
		if t, terr := l.edb.Table(name); terr == nil {
			return t
		}
		var t *engine.Table
		t, err = l.edb.CreateTable(engine.CreateTableSpec{Name: name, Schema: schema, System: true})
		return t
	}
	l.sysTx = ensure(sysTxName, sysTxSchema)
	l.sysBlocks = ensure(sysBlocksName, sysBlocksSchema)
	l.sysViews = ensure(sysViewsName, sysViewsSchema)
	if err != nil {
		return err
	}
	// Secondary index for fetching a block's transactions efficiently.
	l.txByBlock = nil
	for _, ix := range l.sysTx.Indexes() {
		if ix.Meta().Name == sysTxBlockIndex {
			l.txByBlock = ix
			break
		}
	}
	if l.txByBlock == nil {
		l.txByBlock, err = l.edb.CreateIndex(sysTxName, sysTxBlockIndex, "block_id")
		if err != nil {
			return err
		}
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
		if t, terr := l.edb.Table(name); terr == nil {
			var lt *LedgerTable
			lt, err = l.wrapLedgerTable(t)
			return lt
		}
		var lt *LedgerTable
		lt, err = l.createLedgerTable(name, schema, kind, true)
		return lt
	}
	l.metaTables = mk(sysTableMetaN, metaTablesSchema, engine.LedgerUpdateable)
	l.metaColumns = mk(sysColumnMetaN, metaColumnsSchema, engine.LedgerUpdateable)
	l.truncations = mk(sysTruncationsN, truncSchema, engine.LedgerAppendOnly)
	if err != nil {
		return err
	}

	// Wrap every pre-existing ledger table from the catalog (reopen path).
	for _, t := range l.edb.Tables() {
		m := t.Meta()
		if m.Ledger == engine.LedgerUpdateable || m.Ledger == engine.LedgerAppendOnly {
			if _, ok := l.tables[m.ID]; !ok {
				if _, werr := l.wrapLedgerTable(t); werr != nil {
					return werr
				}
			}
		}
	}
	return nil
}

// reconcile rebuilds ledger assignment state after recovery: entries whose
// COMMIT records were replayed but that are missing from the system table
// go back on the in-memory queue (§3.3.2).
func (l *Shard) reconcile(recovered []*wal.LedgerEntry) error {
	// Highest closed block and its hash.
	l.sysBlocks.Scan(func(_ []byte, r sqltypes.Row) bool {
		b := int64(r[0].Int())
		if b > l.closedThrough {
			l.closedThrough = b
			l.prevHash = blockHashOfRow(r)
		}
		return true
	})

	// Re-queue entries missing from sys_ledger_transactions, preserving
	// commit order.
	for _, e := range recovered {
		key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(e.TxID)))
		if _, ok := l.sysTx.Lookup(key); !ok {
			l.queue = append(l.queue, e)
		}
	}

	// Next (block, ordinal) assignment: one past the highest assignment
	// observed anywhere.
	maxBlock, maxOrd, any := int64(-1), int64(-1), false
	observe := func(b, o int64) {
		if !any || b > maxBlock || (b == maxBlock && o > maxOrd) {
			maxBlock, maxOrd, any = b, o, true
		}
	}
	l.sysTx.Scan(func(_ []byte, r sqltypes.Row) bool {
		observe(r[1].Int(), r[2].Int())
		return true
	})
	for _, e := range l.queue {
		observe(int64(e.BlockID), int64(e.Ordinal))
	}
	switch {
	case !any:
		l.curBlock, l.curOrdinal = uint64(l.closedThrough+1), 0
	case maxOrd+1 >= int64(l.opts.BlockSize):
		l.curBlock, l.curOrdinal = uint64(maxBlock)+1, 0
	default:
		l.curBlock, l.curOrdinal = uint64(maxBlock), uint32(maxOrd)+1
	}
	if l.curBlock <= uint64(l.closedThrough) && l.closedThrough >= 0 {
		l.curBlock, l.curOrdinal = uint64(l.closedThrough)+1, 0
	}
	return nil
}

// --- Commit path (§3.3.2) ----------------------------------------------

// assignBlock runs inside the engine's commit critical section: it assigns
// the transaction to the current block and appends the entry to the
// in-memory queue. Nothing else happens here — block closing is triggered
// entirely off the commit path, by the blockCloser's periodic sweep or by
// digest generation.
func (l *Shard) assignBlock(txID uint64, commitTS int64, user string, roots []wal.TableRoot) (uint64, uint32) {
	l.lmu.Lock()
	if l.curOrdinal >= l.opts.BlockSize {
		l.curBlock++
		l.curOrdinal = 0
	}
	block, ord := l.curBlock, l.curOrdinal
	l.curOrdinal++
	l.queue = append(l.queue, &wal.LedgerEntry{
		TxID: txID, BlockID: block, Ordinal: ord, CommitTS: commitTS, User: user,
		Roots: append([]wal.TableRoot(nil), roots...),
	})
	qlen := len(l.queue)
	l.lmu.Unlock()
	l.m.queueLength.Set(float64(qlen))
	return block, ord
}

// drainQueueLocked persists queued entries into sys_ledger_transactions.
// Called by the engine under full quiescence just before a snapshot; the
// writes bypass the WAL because the snapshot itself persists them, and
// recovery from any older snapshot rebuilds the queue from COMMIT records.
//
// lmu is held across the inserts (no commit can want it: the engine is
// quiescent), so a reader that looks at the queue first and the table
// second — entriesOfBlock, ledgerEntries; the block closer and the
// auditor are not stopped by the quiescence — never finds an entry in
// neither.
func (l *Shard) drainQueueLocked() {
	l.lmu.Lock()
	defer l.lmu.Unlock()
	for _, e := range l.queue {
		if _, err := l.edb.DirectInsert(l.sysTx, entryToRow(e)); err != nil {
			// The only possible failure is a duplicate from a re-drain,
			// which is harmless.
			continue
		}
	}
	l.queue = nil
	l.m.queueLength.Set(0)
}

// blockCloseInterval is how often the background closer sweeps for filled
// blocks. The sweep keeps block closing fully off the commit path: commits
// only advance counters, and anything that needs blocks closed *now*
// (digest generation) calls closeBlocksThrough synchronously itself.
const blockCloseInterval = 25 * time.Millisecond

// blockCloser is the single background goroutine that closes filled
// blocks (§3.3.2: "this operation is single-threaded ... and happens
// asynchronously"). Every block below curBlock has all its ordinals
// assigned, so the sweep target is always safe to close.
func (l *Shard) blockCloser() {
	ticker := time.NewTicker(blockCloseInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.doneCh:
			return
		case <-ticker.C:
			l.lmu.Lock()
			target := int64(l.curBlock) - 1
			l.lmu.Unlock()
			if target >= 0 {
				_ = l.closeBlocksThrough(target, false)
			}
		}
	}
}

// closeBlocksThrough closes every open block with id <= target, in order;
// with keep, for a receipt about to prove entries in them, it keeps the
// entry hashes it computes (blockProofs).
func (l *Shard) closeBlocksThrough(target int64, keep bool) error {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	for b := l.closedThrough + 1; b <= target; b++ {
		if err := l.closeOneBlock(b, keep); err != nil {
			return err
		}
	}
	return nil
}

// closeOneBlock closes block b. Caller holds closeMu and guarantees
// every previous block is closed.
func (l *Shard) closeOneBlock(b int64, keep bool) (err error) {
	start := time.Now()
	tr := l.obs.NewTrace("close_block")
	tr.SetAttr("block", strconv.FormatInt(b, 10))
	defer func() {
		tr.Finish(err)
		if err == nil {
			l.m.blockCloseSeconds.ObserveSince(start)
			l.m.blocksClosed.Inc()
		}
	}()
	entries := l.entriesOfBlock(uint64(b))
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
		sqltypes.NewBinary(append([]byte(nil), l.prevHash[:]...)),
		sqltypes.NewBinary(append([]byte(nil), root[:]...)),
		sqltypes.NewBigInt(int64(len(entries))),
		sqltypes.Value{Type: sqltypes.TypeDateTime, I64: l.nowNanos()},
	}
	// Persisting the closed block is a regular, WAL-logged table
	// update, so its durability is guaranteed by the engine.
	tx := l.edb.Begin("system")
	if _, err := tx.Insert(l.sysBlocks, row); err != nil {
		tx.Rollback()
		return err
	}
	if _, err := l.edb.Commit(tx); err != nil {
		return err
	}
	l.prevHash = blockHashOfRow(row)
	l.closedThrough = b
	if keep {
		l.keepProven(uint64(b), provenBlock{leaves, level})
	}
	l.obs.Events().Info(obs.EventBlockClosed,
		"block", b, "transactions", len(entries), "hash", l.prevHash.String())
	return nil
}

// entriesOfBlock returns the block's entries from the in-memory queue
// plus the system table (in that order — see drainQueueLocked; an entry
// drained between the two reads is seen twice and kept once), sorted by
// ordinal. The queue is in (block, ordinal) order — assignBlock appends in
// that order and reconcile re-queues in commit order, which is the same —
// so the block's run in it is found by binary search.
func (l *Shard) entriesOfBlock(block uint64) []*wal.LedgerEntry {
	byBlock := func(e *wal.LedgerEntry, b uint64) int { return cmp.Compare(e.BlockID, b) }
	l.lmu.Lock()
	lo, _ := slices.BinarySearchFunc(l.queue, block, byBlock)
	hi, _ := slices.BinarySearchFunc(l.queue[lo:], block+1, byBlock)
	out := slices.Clone(l.queue[lo : lo+hi])
	l.lmu.Unlock()
	queued := out
	l.sysTx.LookupIndexPrefix(l.txByBlock, []sqltypes.Value{sqltypes.NewBigInt(int64(block))},
		func(_ []byte, r sqltypes.Row) bool {
			e := rowToEntry(r)
			for _, q := range queued {
				if q.TxID == e.TxID {
					return true
				}
			}
			out = append(out, e)
			return true
		})
	sort.Slice(out, func(i, j int) bool { return out[i].Ordinal < out[j].Ordinal })
	return out
}

// ledgerEntries loads every transaction entry — still queued plus
// persisted, one scan of sys_ledger_transactions — keyed by transaction
// id, and grouped by block in ordinal order.
func (l *Shard) ledgerEntries() (byTx map[uint64]*wal.LedgerEntry, byBlock map[uint64][]*wal.LedgerEntry) {
	l.lmu.Lock()
	byTx = make(map[uint64]*wal.LedgerEntry, len(l.queue)+l.sysTx.RowCount())
	for _, e := range l.queue {
		byTx[e.TxID] = e
	}
	l.lmu.Unlock()
	l.sysTx.Scan(func(_ []byte, r sqltypes.Row) bool {
		if id := uint64(r[0].Int()); byTx[id] == nil {
			byTx[id] = rowToEntry(r)
		}
		return true
	})
	// One slice sorted by (block, ordinal), cut where the block changes.
	all := make([]*wal.LedgerEntry, 0, len(byTx))
	for _, e := range byTx {
		all = append(all, e)
	}
	slices.SortFunc(all, func(a, b *wal.LedgerEntry) int {
		return cmp.Or(cmp.Compare(a.BlockID, b.BlockID), cmp.Compare(a.Ordinal, b.Ordinal), cmp.Compare(a.TxID, b.TxID))
	})
	byBlock = make(map[uint64][]*wal.LedgerEntry)
	for len(all) > 0 {
		n := 1
		for n < len(all) && all[n].BlockID == all[0].BlockID {
			n++
		}
		byBlock[all[0].BlockID], all = all[:n:n], all[n:]
	}
	return byTx, byBlock
}

// recordedTxIDs returns the id of every transaction that has a ledger
// entry, queued or persisted.
func (l *Shard) recordedTxIDs() []uint64 {
	l.lmu.Lock()
	ids := make([]uint64, 0, len(l.queue)+l.sysTx.RowCount())
	for _, e := range l.queue {
		ids = append(ids, e.TxID)
	}
	l.lmu.Unlock()
	l.sysTx.Scan(func(_ []byte, r sqltypes.Row) bool {
		ids = append(ids, uint64(r[0].Int()))
		return true
	})
	return ids
}

// --- Entry and block hashing --------------------------------------------

func appendRootsBlob(b []byte, roots []wal.TableRoot) []byte {
	b = binary.AppendUvarint(b, uint64(len(roots)))
	for _, tr := range roots {
		b = binary.AppendUvarint(b, uint64(tr.TableID))
		b = append(b, tr.Root[:]...)
	}
	return b
}

func parseRootsBlob(b []byte) ([]wal.TableRoot, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("core: bad roots blob")
	}
	pos := sz
	out := make([]wal.TableRoot, 0, n)
	for i := uint64(0); i < n; i++ {
		tid, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("core: bad roots blob table id")
		}
		pos += sz
		var tr wal.TableRoot
		tr.TableID = uint32(tid)
		if pos+len(tr.Root) > len(b) {
			return nil, fmt.Errorf("core: truncated roots blob")
		}
		copy(tr.Root[:], b[pos:])
		pos += len(tr.Root)
		out = append(out, tr)
	}
	return out, nil
}

func entryToRow(e *wal.LedgerEntry) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewBigInt(int64(e.TxID)),
		sqltypes.NewBigInt(int64(e.BlockID)),
		sqltypes.NewBigInt(int64(e.Ordinal)),
		sqltypes.Value{Type: sqltypes.TypeDateTime, I64: e.CommitTS},
		sqltypes.NewNVarChar(e.User),
		sqltypes.NewVarBinary(appendRootsBlob(nil, e.Roots)),
	}
}

func rowToEntry(r sqltypes.Row) *wal.LedgerEntry {
	roots, _ := parseRootsBlob(r[5].Bytes)
	return &wal.LedgerEntry{
		TxID:     uint64(r[0].Int()),
		BlockID:  uint64(r[1].Int()),
		Ordinal:  uint32(r[2].Int()),
		CommitTS: r[3].Int(),
		User:     r[4].Str,
		Roots:    roots,
	}
}

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

package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sqlledger/internal/obs"
	"sqlledger/internal/wal"
)

// LedgerHook is how internal/core attaches ledger processing to the
// engine's commit path, checkpointer and recovery, mirroring the
// extension points the paper describes in §3.3.2.
type LedgerHook interface {
	// OnCommit runs inside the commit critical section for transactions
	// that updated ledger tables. It must assign the transaction to a
	// block and return its ledger entry, which the engine embeds in the
	// COMMIT log record as it is and does not keep.
	OnCommit(txID uint64, commitTS int64, user string, roots []wal.TableRoot) wal.LedgerEntry
	// Logged runs once the COMMIT record of the transaction OnCommit placed
	// at (blockID, ordinal) is in the log, before its writes are visible,
	// with the LSN of the frame that holds its DML and COMMIT records.
	Logged(blockID uint64, ordinal uint32, frameLSN int64)
	// BeforeSnapshot runs under full quiescence just before a snapshot is
	// written; the core drains the in-memory ledger queue into the system
	// tables here so the snapshot captures it.
	BeforeSnapshot()
	// Recovered delivers the ledger entries of all committed transactions
	// replayed from the log, in commit order, for queue reconstruction, and
	// beside each the LSN of the frame holding its DML, as Logged does.
	Recovered(entries []*wal.LedgerEntry, frames []int64)
}

// Options configures Open.
type Options struct {
	// Dir is the database directory (WAL + snapshots).
	Dir string
	// Sync selects the WAL durability mode.
	Sync wal.SyncMode
	// LockTimeout bounds row-lock waits (deadlock resolution); default 2s.
	LockTimeout time.Duration
	// Hook, if set, receives ledger callbacks.
	Hook LedgerHook
	// Obs receives metrics and spans from every layer of this database
	// (WAL, commit pipeline, locks). nil creates a private enabled
	// registry; pass obs.Disabled() to turn recording off.
	Obs *obs.Registry
	// Clock, if set, supplies commit timestamps (unix nanoseconds) in
	// place of time.Now. A logical clock here makes every ledger
	// artifact — entries, block hashes, digests — byte-for-byte
	// reproducible across runs, which equivalence tests and benchmarks
	// rely on. nil uses the wall clock.
	Clock func() int64
	// RecoveryWorkers sets the parallelism of crash recovery. Redo always
	// replays the snapshot and then the log in order on one loop; above 1,
	// a goroutine reads and decodes the log a batch ahead of it, and this
	// many tables at a time install what redo built. 0 means one per CPU;
	// 1 runs recovery with no goroutines.
	RecoveryWorkers int
}

// DB is an embedded relational database.
type DB struct {
	opts Options

	mu     sync.RWMutex // guards catalog and tables map
	cat    *catalog
	tables map[uint32]*Table

	log   *wal.Log
	locks *lockTable
	// committer batches concurrent commits into shared-flush write groups.
	committer *wal.GroupCommitter

	// commitMu serializes only the sequencing stage of the commit pipeline:
	// monotonic timestamp assignment, ledger block/ordinal assignment, and
	// publication to the group committer (so WAL order matches ordinal
	// order). Durability and apply happen outside it.
	commitMu     sync.Mutex
	lastCommitTS atomic.Int64

	// appliedTS is the applied-through watermark: the largest timestamp T
	// such that every commit with ts <= T has installed its writes into
	// shared storage (stage 4 of the pipeline). lastCommitTS is published
	// in stage 1, before the durability wait and apply, so snapshot reads
	// pin appliedTS instead — pinning lastCommitTS would let a reader
	// observe a cut whose transactions are not all applied yet (missing
	// T while seeing a younger T', non-repeatable reads within one
	// snapshot). Advanced only by markApplied, monotonically.
	appliedTS atomic.Int64
	// inflightMu guards inflight — the set of sequenced-but-unapplied
	// commit timestamps — and makes lastCommitTS publication atomic with
	// in-flight registration, so markApplied always sees every timestamp
	// that may still be unapplied.
	inflightMu sync.Mutex
	inflight   map[int64]struct{}
	// advanced is signalled, under inflightMu, when appliedTS moves: a
	// commit returns only once appliedTS covers it (awaitApplied).
	advanced sync.Cond

	// quiesce: commits and DDL hold RLock; checkpoint/restore hold Lock.
	// Since the online checkpoint, Checkpoint holds Lock only for the
	// microseconds needed to pin a transaction-consistent cut; the
	// snapshot itself streams from MVCC version chains while committers
	// run.
	quiesce sync.RWMutex
	// checkpointMu serializes whole checkpoints against each other (the
	// snapshot write no longer runs under quiesce, so two concurrent
	// Checkpoint calls would otherwise race on snapshot ids and the
	// checkpoint record).
	checkpointMu sync.Mutex
	// snapshotWriteHook, when non-nil, runs once at the start of the
	// checkpoint's snapshot streaming phase — after quiesce is released.
	// Tests use it to prove committers make progress while the write is
	// in flight.
	snapshotWriteHook func()

	// snapMu guards the active-snapshot registry used by read-only
	// transactions (readtx.go) and version GC.
	snapMu     sync.Mutex
	snaps      map[uint64]int64 // read-tx id -> pinned snapshot TS
	nextSnapID uint64

	gcStop     chan struct{}
	gcDone     chan struct{}
	gcStopOnce sync.Once

	// redoFrom is the LSN the snapshot Open loaded covers: redo began there.
	redoFrom int64
	closed   bool

	obs *obs.Registry
	m   dbMetrics
}

// dbMetrics holds the engine's metric handles, resolved once at Open.
type dbMetrics struct {
	stageEncode   *obs.Histogram
	stageSequence *obs.Histogram
	stagePublish  *obs.Histogram
	stageWait     *obs.Histogram
	stageApply    *obs.Histogram
	snapshotReads *obs.Counter
	versionsLive  *obs.Gauge
	gcReclaimed   *obs.Counter
}

func bindDBMetrics(reg *obs.Registry) dbMetrics {
	return dbMetrics{
		stageEncode:   reg.Histogram(obs.CommitStageSeconds, nil, obs.L("stage", "encode")),
		stageSequence: reg.Histogram(obs.CommitStageSeconds, nil, obs.L("stage", "sequence")),
		stagePublish:  reg.Histogram(obs.CommitStageSeconds, nil, obs.L("stage", "publish")),
		stageWait:     reg.Histogram(obs.CommitStageSeconds, nil, obs.L("stage", "wait")),
		stageApply:    reg.Histogram(obs.CommitStageSeconds, nil, obs.L("stage", "apply")),
		snapshotReads: reg.Counter(obs.SnapshotReadsTotal),
		versionsLive:  reg.Gauge(obs.VersionsLive),
		gcReclaimed:   reg.Counter(obs.VersionGCReclaimedTotal),
	}
}

const walFileName = "wal.log"

// Open opens (creating if necessary) the database in opts.Dir, running
// crash recovery: load the latest snapshot, then redo committed
// transactions from the WAL, then hand recovered ledger entries to the
// hook for queue reconstruction.
func Open(opts Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("engine: Options.Dir is required")
	}
	if opts.LockTimeout == 0 {
		opts.LockTimeout = 2 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = func() int64 { return time.Now().UnixNano() }
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: mkdir: %w", err)
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	log, err := wal.OpenWithClock(filepath.Join(opts.Dir, walFileName), opts.Sync, opts.Clock)
	if err != nil {
		return nil, err
	}
	// Rebind before recovery so everything the database ever fsyncs is
	// counted on the shared registry.
	log.Instrument(opts.Obs)
	if log.Created() {
		opts.Obs.Events().Info(obs.EventIncarnation, "incarnation", log.CreateTime(), "dir", opts.Dir)
	}
	db := &DB{
		opts:     opts,
		cat:      newCatalog(),
		tables:   make(map[uint32]*Table),
		log:      log,
		locks:    newLockTable(opts.Obs),
		snaps:    make(map[uint64]int64),
		inflight: make(map[int64]struct{}),
		gcStop:   make(chan struct{}),
		gcDone:   make(chan struct{}),
		obs:      opts.Obs,
		m:        bindDBMetrics(opts.Obs),
	}
	db.advanced.L = &db.inflightMu
	if err := db.recover(); err != nil {
		log.Close()
		return nil, err
	}
	db.committer = wal.NewGroupCommitter(log)
	// No snapshot can be pinned before Open returns, so every version redo
	// superseded is unreachable already: reclaim them now, not a sweep
	// interval from now.
	db.GCVersions()
	go db.versionGCLoop()
	return db, nil
}

// Close flushes and closes the database. In-flight transactions must be
// finished first.
func (db *DB) Close() error {
	// Stop the version-GC sweeper before quiescing: its sweeps take
	// quiesce.RLock, so stopping it afterwards would deadlock.
	db.stopVersionGC()
	db.quiesce.Lock()
	defer db.quiesce.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	db.committer.Close()
	return db.log.Close()
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.opts.Dir }

// CreateTime returns the create time (unix nanoseconds) in the header of
// the database's log: Options.Clock's reading when Open created the log,
// the wall clock's when RestoreToTime did. The ledger takes it for the
// database's incarnation (§3.6).
func (db *DB) CreateTime() int64 { return db.log.CreateTime() }

// ReadFrame returns the records of the WAL frame at lsn (wal.Log.ReadFrame).
func (db *DB) ReadFrame(lsn int64) ([]wal.Record, error) { return db.log.ReadFrame(lsn) }

// LastCommitTS returns the commit timestamp (unix nanoseconds) of the most
// recently committed transaction. It reads an atomic, so read-only commits
// and digest generation never contend on the commit critical section.
func (db *DB) LastCommitTS() int64 {
	return db.lastCommitTS.Load()
}

// Table returns the runtime table for a (non-dropped) name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.cat.tableByName(name)
	if m == nil {
		return nil, fmt.Errorf("engine: table %q not found", name)
	}
	return db.tables[m.ID], nil
}

// TableByID returns the runtime table for an id, including dropped tables
// (verification still processes them, §3.5.2).
func (db *DB) TableByID(id uint32) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[id]
	if !ok {
		return nil, fmt.Errorf("engine: table id %d not found", id)
	}
	return t, nil
}

// Tables returns all runtime tables (including dropped and system tables),
// ordered by id.
func (db *DB) Tables() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].meta.ID < out[j].meta.ID })
	return out
}

// Begin starts a transaction on behalf of user.
func (db *DB) Begin(user string) *Tx {
	db.mu.Lock()
	id := db.cat.NextTxID
	db.cat.NextTxID++
	db.mu.Unlock()
	return &Tx{
		db:       db,
		id:       id,
		user:     user,
		overlays: make(map[uint32]*overlay),
		locks:    make(map[lockKey]struct{}),
	}
}

// Commit atomically applies and durably logs the transaction through a
// staged pipeline: encode the write set into WAL records, then the shared
// commit tail (sequence → publish → wait → apply, see commitTail). Returns
// the commit timestamp.
func (db *DB) Commit(tx *Tx) (int64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if len(tx.writes) == 0 {
		// Read-only: nothing to log or apply.
		tx.done = true
		tx.releaseLocks()
		return db.LastCommitTS(), nil
	}
	// The lap timer reads the clock only when the registry is enabled, so
	// the metrics-off ablation skips all stage observations. When the
	// transaction carries a trace, every lap also lands as a top-level
	// child span — the commit waterfall — from the same clock reads.
	lap := db.obs.Timer()
	// Build the WAL batch outside the critical section.
	recs := tx.encodeWrites()
	return db.commitTail(tx, recs, lap, tx.trace)
}

// commitTail is the commit path after encoding: sequence (commit timestamp and, for ledger transactions, block/ordinal
// assignment under commitMu, §3.3.2) → publish (queue the WAL frame with
// the group committer while still holding commitMu, so WAL commit-record
// order equals ledger ordinal order) → wait (durability: whichever waiting
// committer finds no flush in flight writes every queued frame with one
// flush — one fsync per group under SyncFull — so a commit that arrives
// alone writes its own frame here, on this goroutine) → apply (install
// writes, release row locks, and wait for older commits to apply, so that
// every later snapshot sees what is acknowledged). Row locks stay held
// until apply, so isolation is what a fully serialized commit would give.
// recs holds the transaction's DML records with room for the COMMIT
// record; lap was started before they were encoded.
func (db *DB) commitTail(tx *Tx, recs []wal.Record, lap obs.LapTimer, tr *obs.Trace) (int64, error) {
	lap.LapSpan(db.m.stageEncode, tr, obs.SpanWALEncode)

	db.quiesce.RLock()
	defer db.quiesce.RUnlock()
	if db.closed {
		// Before a timestamp or a ledger ordinal is taken: a commit that
		// cannot be logged must leave no trace in the ledger queue.
		return 0, ErrClosed
	}

	// Stage 1 — sequence. Publishing lastCommitTS and registering the
	// timestamp as in-flight happen under one inflightMu critical section
	// so the applied-through watermark (markApplied) can never observe a
	// published timestamp that is missing from the in-flight set.
	db.commitMu.Lock()
	now := db.opts.Clock()
	if last := db.lastCommitTS.Load(); now <= last {
		now = last + 1
	}
	db.inflightMu.Lock()
	db.lastCommitTS.Store(now)
	db.inflight[now] = struct{}{}
	db.inflightMu.Unlock()

	commit := wal.CommitPayload{CommitTS: now, User: tx.user}
	var entry wal.LedgerEntry
	if len(tx.Roots) > 0 && db.opts.Hook != nil {
		entry = db.opts.Hook.OnCommit(tx.id, now, tx.user, tx.Roots)
		commit.Entry = &entry
	}
	recs = append(recs, wal.Record{
		Type:    wal.RecCommit,
		TxID:    tx.id,
		Payload: wal.EncodeCommit(commit),
	})

	// Stages 2 and 3 — publish, then wait for durability off the critical
	// section.
	lap.LapSpan(db.m.stageSequence, tr, obs.SpanCommitSequence)
	var enqueued time.Time
	if tr != nil {
		enqueued = time.Now()
	}
	ticket := db.committer.Enqueue(recs)
	db.commitMu.Unlock()
	lap.LapSpan(db.m.stagePublish, tr, obs.SpanCommitPublish)
	lsn, err := ticket.Wait()
	waitID := lap.LapSpan(db.m.stageWait, tr, obs.SpanCommitWait)
	if tr != nil {
		// Split the durability wait into its two legs: waiting for the
		// group to form (enqueue → flush start; next to nothing when this
		// commit flushed alone) and the group's shared append+fsync,
		// annotated with how many commits amortized it.
		fs, fd, gsize, grecs := ticket.GroupTimings()
		if !fs.IsZero() {
			if fs.After(enqueued) {
				tr.Record(obs.SpanWALGroupForm, waitID, enqueued, fs.Sub(enqueued))
			}
			tr.Record(obs.SpanWALFlush, waitID, fs, fd,
				obs.L("group_size", strconv.Itoa(gsize)),
				obs.L("group_records", strconv.Itoa(grecs)))
		}
	}
	if err == nil && commit.Entry != nil {
		db.opts.Hook.Logged(entry.BlockID, entry.Ordinal, lsn)
	}
	if err == nil {
		// Stage 4 — apply to shared storage while still holding row locks,
		// so conflicting transactions observe this one fully. Each write
		// appends a version stamped with the commit timestamp; snapshot
		// readers pinned earlier keep seeing the previous versions.
		db.applyWrites(tx.writes, now)
	}
	// Applied or abandoned, the timestamp is retired: a failed commit's
	// writes will never apply, so it must not hold the applied-through
	// watermark back for snapshot readers.
	db.markApplied(now)
	if err != nil {
		// The ledger hook has already assigned this commit a block position
		// and queued its entry, so the open block would close with an entry
		// whose COMMIT record never reached the log. What keeps that from
		// ever being acknowledged is that the log is fail-stop: the error
		// is sticky, so every later append, flush and checkpoint — the
		// block close and the snapshot that would persist the entry
		// included — returns it too, and a restart recovers the log's valid
		// prefix, which has no trace of this commit.
		return 0, fmt.Errorf("engine: commit log: %w", err)
	}
	tx.done = true
	tx.releaseLocks()
	db.awaitApplied(now)
	lap.LapSpan(db.m.stageApply, tr, obs.SpanCommitApply)
	return now, nil
}

// awaitApplied returns once the applied-through watermark covers ts, so a
// commit is acknowledged only when every snapshot begun after it sees it.
// An older commit still applying is all it can wait for: every sequenced
// timestamp is retired, applied or failed, without waiting on a younger
// one.
func (db *DB) awaitApplied(ts int64) {
	if db.appliedTS.Load() >= ts {
		return
	}
	db.inflightMu.Lock()
	for db.appliedTS.Load() < ts {
		db.advanced.Wait()
	}
	db.inflightMu.Unlock()
}

// markApplied retires a sequenced commit timestamp after its writes are
// installed (or abandoned on a log-write failure) and advances the
// applied-through watermark to the largest timestamp with no unapplied
// commit at or below it: lastCommitTS when nothing is in flight, otherwise
// one below the oldest in-flight commit. appliedTS is only written here,
// under inflightMu, so the monotonicity check is race-free.
func (db *DB) markApplied(ts int64) {
	db.inflightMu.Lock()
	delete(db.inflight, ts)
	applied := db.lastCommitTS.Load()
	for pending := range db.inflight {
		if pending-1 < applied {
			applied = pending - 1
		}
	}
	if applied > db.appliedTS.Load() {
		db.appliedTS.Store(applied)
		db.advanced.Broadcast()
	}
	db.inflightMu.Unlock()
}

// applyWrites installs a committed write set into the tables as versions
// stamped with commitTS, taking each table's lock once: tables in the order
// the transaction first wrote them, each table's writes in log order. A
// ledger update writes its base and history tables in turn, so grouping
// only consecutive writes would take both locks once per row. Writes to
// different tables are independent, and snapshot readers see none of them
// before markApplied publishes commitTS.
func (db *DB) applyWrites(writes []writeOp, commitTS int64) {
	var few [4]uint32
	done := few[:0]
	for i := range writes {
		tid := writes[i].tableID
		if slices.Contains(done, tid) {
			continue
		}
		done = append(done, tid)
		db.mu.RLock()
		t := db.tables[tid]
		db.mu.RUnlock()
		t.mu.Lock()
		for j := i; j < len(writes); j++ {
			w := &writes[j]
			if w.tableID != tid {
				continue
			}
			var err error
			switch w.typ {
			case wal.RecInsert:
				err = t.applyInsertLocked(w.key, w.after, commitTS)
			case wal.RecDelete:
				err = t.applyDeleteLocked(w.key, commitTS)
			case wal.RecUpdate:
				err = t.applyUpdateLocked(w.key, w.after, commitTS)
			}
			if err != nil {
				// Row locks make apply conflicts impossible; a failure here
				// means engine-internal corruption.
				t.mu.Unlock()
				panic(fmt.Sprintf("engine: apply failed: %v", err))
			}
		}
		t.mu.Unlock()
	}
	// Every applied op adds exactly one version (insert, replacement or
	// tombstone); GC subtracts as it reclaims.
	db.m.versionsLive.Add(float64(len(writes)))
}

package engine

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"sqlledger/internal/btree"
	"sqlledger/internal/obs"
	"sqlledger/internal/wal"
)

// Pipelined parallel crash recovery.
//
// The serial replay loop paid three costs in sequence per record: read
// (I/O + CRC), decode (allocation-heavy payload parsing), and apply. This
// version overlaps all three. A wal.PipelinedReader streams records
// through a read-ahead stage and a parallel decode pool, still delivering
// them in strict log order. The redo loop itself becomes an analysis pass
// (sort transactions into winners, losers and in-doubt, exactly as
// before) that forwards each committed write set to a pool of apply
// workers, partitioned by hash of (table, key) so every key is owned by
// exactly one worker and per-key commit-TS order is preserved.
//
// Workers never mutate shared structures: the row btrees are read-only
// during replay (lookups only), existing version chains are mutated only
// by their owning worker, and chains for keys new since the snapshot
// accumulate in worker-private maps. A final install phase — parallel
// across tables — bulk-loads the new chains into each table's btree
// (btree.BuildSorted when the table was empty), fixes row counts and RID
// allocators, and rebuilds the indexes of touched tables. Index state is
// a pure function of the final live rows, so the result is identical to
// serial replay — the root equivalence test proves digests match
// byte-for-byte and full verification stays green. Redo never decodes a
// row: a version is the after-image's bytes as the log carried them
// (wal.DecodeDMLImage checked and copied them), and a replayed ALTER
// changes only the schema those bytes are later read against.
//
// RecoveryWorkers = 1 runs the same analysis/apply/install code inline
// with no goroutines: the serial baseline.

// recoveredOps is one committed transaction's write-set slice destined
// for a single apply worker, stamped with the commit timestamp.
type recoveredOps struct {
	commitTS int64
	ops      []writeOp
}

// newEntry is a worker-private chain for a key absent from the snapshot
// image, installed into the table btree after workers join.
type newEntry struct {
	key   []byte
	chain *versionChain
}

// redoTableState is one apply worker's private view of one table.
type redoTableState struct {
	table *Table
	// chains indexes this worker's new chains by key for op lookup.
	chains map[string]*versionChain
	// entries preserves the new chains for the install phase.
	entries []newEntry
	// liveDelta is the net live-row change this worker applied.
	liveDelta int
}

// redoWorker applies the committed write sets it owns. When recovery runs
// parallel, each has a goroutine draining ch; serial recovery calls
// applyTx directly on a single worker.
type redoWorker struct {
	db     *DB
	ch     chan recoveredOps
	tables map[uint32]*redoTableState
	ops    int
	err    error
}

func (w *redoWorker) state(tid uint32) (*redoTableState, error) {
	st, ok := w.tables[tid]
	if !ok {
		w.db.mu.RLock()
		t := w.db.tables[tid]
		w.db.mu.RUnlock()
		if t == nil {
			return nil, fmt.Errorf("engine: recovery: unknown table %d", tid)
		}
		st = &redoTableState{table: t, chains: make(map[string]*versionChain)}
		w.tables[tid] = st
	}
	return st, nil
}

// applyTx installs one committed transaction's ops (this worker's share)
// as versions stamped with commitTS. Mirrors applyInsert/Delete/Update-
// Locked, minus index maintenance (indexes are rebuilt at install) and
// minus locking (each key is owned by exactly one worker).
func (w *redoWorker) applyTx(tx recoveredOps) error {
	for _, op := range tx.ops {
		st, err := w.state(op.tableID)
		if err != nil {
			return err
		}
		c := st.chains[string(op.key)]
		if c == nil {
			if tc, ok := st.table.rows.Get(op.key); ok {
				c = tc
			}
		}
		switch op.typ {
		case wal.RecInsert:
			if c != nil {
				if _, live := c.latestLive(); live {
					return fmt.Errorf("%w: table %s (recovery)", ErrDuplicateKey, st.table.meta.Name)
				}
				c.appendVersion(tx.commitTS, op.after)
			} else {
				nc := newChain(tx.commitTS, op.after)
				st.chains[string(op.key)] = nc
				st.entries = append(st.entries, newEntry{key: op.key, chain: nc})
			}
			st.liveDelta++
		case wal.RecDelete, wal.RecUpdate:
			live := false
			if c != nil {
				_, live = c.latestLive()
			}
			if !live {
				return fmt.Errorf("%w: table %s (recovery)", ErrNotFound, st.table.meta.Name)
			}
			c.appendVersion(tx.commitTS, op.after) // nil for a delete: a tombstone
			if op.typ == wal.RecDelete {
				st.liveDelta--
			}
		}
		w.ops++
	}
	return nil
}

func (w *redoWorker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for tx := range w.ch {
		if w.err != nil {
			continue // keep draining so the analysis loop never blocks
		}
		if err := w.applyTx(tx); err != nil {
			w.err = err
		}
	}
}

// redoHash owns the (table, key) -> worker partition. FNV-1a, inlined so
// the analysis loop doesn't allocate a hasher per op.
func redoHash(tableID uint32, key []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= uint32(tableID >> (8 * i) & 0xff)
		h *= 16777619
	}
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// recoveryWorkers resolves Options.RecoveryWorkers: 0 means one per CPU.
func (db *DB) recoveryWorkers() int {
	if w := db.opts.RecoveryWorkers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// recover loads the newest snapshot and replays the WAL from its LSN,
// applying only committed transactions (redo); buffered operations of
// transactions without a COMMIT record are discarded (losers never reach
// shared storage in this engine, so no undo pass is needed).
func (db *DB) recover() error {
	start := time.Now()
	tr := db.obs.NewTrace("recovery")
	tr.SetAttr("workers", strconv.Itoa(db.recoveryWorkers()))
	err := db.recoverPhases(tr, start)
	tr.Finish(err)
	return err
}

func (db *DB) recoverPhases(tr *obs.Trace, start time.Time) error {
	phaseSnapshot := time.Now()
	snapLSN, err := db.loadLatestSnapshot()
	if err != nil {
		return err
	}
	db.redoFrom = snapLSN
	db.obs.Histogram(obs.RecoverySeconds, nil, obs.L("phase", "snapshot")).ObserveSince(phaseSnapshot)

	workers := db.recoveryWorkers()
	phaseReplay := time.Now()
	pr, err := wal.NewPipelinedReader(filepath.Join(db.opts.Dir, walFileName), snapLSN, db.log.Size(), workers)
	if err != nil {
		return err
	}
	defer pr.Close()

	// Apply pool. Serial recovery (workers == 1) uses pool[0] inline.
	pool := make([]*redoWorker, workers)
	for i := range pool {
		pool[i] = &redoWorker{db: db, tables: make(map[uint32]*redoTableState)}
	}
	var wg sync.WaitGroup
	parallel := workers > 1
	if parallel {
		for _, w := range pool {
			w.ch = make(chan recoveredOps, 256)
			wg.Add(1)
			go w.run(&wg)
		}
	}
	closePool := func() {
		if parallel {
			for _, w := range pool {
				close(w.ch)
			}
			wg.Wait()
			parallel = false
		}
	}
	defer closePool()

	pending := make(map[uint64][]writeOp)
	// preparedAt maps a transaction id to its PREPARE record; a later
	// COMMIT or ABORT record resolves it, anything left at the end of the
	// log is in doubt.
	preparedAt := make(map[uint64]wal.DecodedRecord)
	rebuild := make(map[uint32]struct{})
	var entries []*wal.LedgerEntry
	var frames []int64 // of entries: the LSN of the frame holding the DML
	maxTx := uint64(0)
	records := 0
	// shares is reused per commit to partition a write set across the pool.
	shares := make([][]writeOp, workers)
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("engine: recovery read: %w", err)
		}
		records++
		if rec.TxID > maxTx {
			maxTx = rec.TxID
		}
		switch rec.Type {
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
			p := rec.DML
			pending[rec.TxID] = append(pending[rec.TxID], writeOp{
				typ: rec.Type, tableID: p.TableID, key: p.Key, after: p.After,
			})
		case wal.RecCommit:
			p := rec.Commit
			writes := pending[rec.TxID]
			if !parallel {
				if err := pool[0].applyTx(recoveredOps{commitTS: p.CommitTS, ops: writes}); err != nil {
					return fmt.Errorf("engine: recovery apply: %w", err)
				}
			} else {
				for _, op := range writes {
					i := int(redoHash(op.tableID, op.key) % uint32(workers))
					shares[i] = append(shares[i], op)
				}
				for i, share := range shares {
					if len(share) == 0 {
						continue
					}
					pool[i].ch <- recoveredOps{commitTS: p.CommitTS, ops: share}
					shares[i] = nil
				}
			}
			delete(pending, rec.TxID)
			if p.CommitTS > db.lastCommitTS.Load() {
				db.lastCommitTS.Store(p.CommitTS)
			}
			if p.Entry != nil {
				entries = append(entries, p.Entry)
				frames = append(frames, dmlFrame(rec.Record, preparedAt))
			}
			delete(preparedAt, rec.TxID)
		case wal.RecAbort:
			delete(pending, rec.TxID)
			delete(preparedAt, rec.TxID)
		case wal.RecPrepare:
			preparedAt[rec.TxID] = rec
		case wal.RecDDL:
			p, err := wal.DecodeDDL(rec.Payload)
			if err != nil {
				return fmt.Errorf("engine: recovery: ddl record at LSN %d: %w", rec.LSN, err)
			}
			if err := db.redoDDL(p.Body, rebuild); err != nil {
				return fmt.Errorf("engine: recovery: %s record at LSN %d: %w", p.Kind, rec.LSN, err)
			}
		case wal.RecCheckpoint:
			// Informational during redo.
		default:
			return fmt.Errorf("engine: recovery: unknown record type %d", rec.Type)
		}
	}
	closePool()
	applied := 0
	for _, w := range pool {
		if w.err != nil {
			return fmt.Errorf("engine: recovery apply: %w", w.err)
		}
		applied += w.ops
	}
	db.obs.Histogram(obs.RecoverySeconds, nil, obs.L("phase", "replay")).ObserveSince(phaseReplay)

	// Install phase: merge worker-private chains into the tables, rebuild
	// indexes of touched tables.
	phaseInstall := time.Now()
	db.installRecovered(pool, rebuild, workers)
	db.obs.Histogram(obs.RecoverySeconds, nil, obs.L("phase", "install")).ObserveSince(phaseInstall)
	db.m.versionsLive.Add(float64(applied))

	if maxTx >= db.cat.NextTxID {
		db.cat.NextTxID = maxTx + 1
	}
	// Reconstruct in-doubt transactions: prepared but undecided at the end
	// of the log. Their writes stay out of shared storage until the 2PC
	// coordinator resolves them (presumed abort when it has no decision).
	// Recovery applies no in-doubt writes, so no row locks are needed to
	// keep the write sets isolated until resolution.
	for txID, rec := range preparedAt {
		p := rec.Prepare
		tx := &Tx{
			db:         db,
			id:         txID,
			user:       p.User,
			writes:     pending[txID],
			Roots:      p.Roots,
			prepared:   true,
			gid:        p.Gid,
			prepareLSN: rec.LSN,
			inDoubt:    true,
		}
		delete(pending, txID)
		db.inDoubt[p.Gid] = tx
		db.preparedCount.Add(1)
	}
	// Replay waits for every committed transaction's apply before the
	// install barrier, so the applied-through watermark starts flush with
	// the last commit.
	db.appliedTS.Store(db.lastCommitTS.Load())
	if db.opts.Hook != nil {
		db.opts.Hook.Recovered(entries, frames)
	}
	db.obs.Counter(obs.RecoveryRecordsReplayedTotal).Add(int64(records))
	if records > 0 {
		elapsed := time.Since(start)
		tr.SetAttr("records", strconv.Itoa(records))
		db.obs.Events().Info(obs.EventRecoveryReplay,
			"snapshot_lsn", snapLSN, "records", records,
			"committed_ledger_entries", len(entries), "end_lsn", db.log.Size(),
			"duration_seconds", elapsed.Seconds(),
			"records_per_sec", float64(records)/elapsed.Seconds())
	}
	return nil
}

// dmlFrame is the LSN of the frame holding the DML of the transaction that
// commit commits: the frame of its PREPARE record if it has one, else its
// own.
func dmlFrame(commit wal.Record, preparedAt map[uint64]wal.DecodedRecord) int64 {
	if p, ok := preparedAt[commit.TxID]; ok {
		return p.LSN
	}
	return commit.LSN
}

// LedgerFramesBefore calls fn, in log order, with the ledger entry of each
// transaction committed before the snapshot Open loaded and the LSN of
// the frame holding its DML, as LedgerHook.Logged would have: what redo
// learned for the commits after that snapshot, looked up in one pass over
// the log prefix only when someone asks.
func (db *DB) LedgerFramesBefore(fn func(e *wal.LedgerEntry, frame int64)) error {
	r, err := wal.NewReader(filepath.Join(db.opts.Dir, walFileName), wal.HeaderLen, db.redoFrom)
	if err != nil {
		return err
	}
	defer r.Close()
	preparedAt := make(map[uint64]wal.DecodedRecord)
	for {
		rec, err := r.Next()
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case rec.Type == wal.RecPrepare:
			preparedAt[rec.TxID] = wal.DecodedRecord{Record: rec}
		case rec.Type == wal.RecCommit:
			p, err := wal.DecodeCommit(rec.Payload)
			if err != nil {
				return err
			}
			if p.Entry != nil {
				fn(p.Entry, dmlFrame(rec, preparedAt))
			}
			delete(preparedAt, rec.TxID)
		}
	}
}

// installRecovered folds the apply pool's private state into the shared
// tables. Tables are independent, so the merge runs parallel across them.
func (db *DB) installRecovered(pool []*redoWorker, rebuild map[uint32]struct{}, workers int) {
	// Collect the per-table work across workers.
	type tableInstall struct {
		table     *Table
		entries   []newEntry
		liveDelta int
	}
	jobs := make(map[uint32]*tableInstall)
	for _, w := range pool {
		for tid, st := range w.tables {
			j, ok := jobs[tid]
			if !ok {
				j = &tableInstall{table: st.table}
				jobs[tid] = j
			}
			j.entries = append(j.entries, st.entries...)
			j.liveDelta += st.liveDelta
		}
	}
	// Re-indexed tables need an install pass even with no DML.
	for tid := range rebuild {
		if _, ok := jobs[tid]; !ok {
			db.mu.RLock()
			t := db.tables[tid]
			db.mu.RUnlock()
			if t != nil {
				jobs[tid] = &tableInstall{table: t}
			}
		}
	}
	list := make([]*tableInstall, 0, len(jobs))
	for _, j := range jobs {
		list = append(list, j)
	}
	forEach(len(list), workers, func(i int) {
		j, t := list[i], list[i].table
		t.mu.Lock()
		defer t.mu.Unlock()
		if len(j.entries) > 0 {
			sort.Slice(j.entries, func(a, b int) bool {
				return bytes.Compare(j.entries[a].key, j.entries[b].key) < 0
			})
			if t.rows.Len() == 0 {
				keys := make([][]byte, len(j.entries))
				chains := make([]*versionChain, len(j.entries))
				for i, e := range j.entries {
					keys[i], chains[i] = e.key, e.chain
				}
				t.rows = btree.BuildSorted(keys, chains)
			} else {
				for _, e := range j.entries {
					t.rows.Put(e.key, e.chain)
				}
			}
			for _, e := range j.entries {
				t.noteRIDLocked(e.key)
			}
		}
		t.liveRows += j.liveDelta
		for _, ix := range t.indexes {
			t.buildIndexLocked(ix)
		}
	})
}

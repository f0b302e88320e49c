package engine

import (
	"fmt"
	"strconv"
	"time"

	"sqlledger/internal/sqltypes"
)

// ReadTx is a snapshot-isolated read-only transaction. It pins a snapshot
// timestamp from the appliedTS watermark at Begin and reads the newest row
// version at or below that timestamp, so it never touches the lock table
// and never blocks a writer (writers keep strict 2PL + group commit). The
// snapshot stays registered until Close so version GC cannot reclaim the
// versions it may still read.
//
// Reads (Get, GetByKey, GetStored, the scans) only read the
// transaction and may run from several goroutines at once — verification shards one
// snapshot's scan across a worker pool. Close must not race a read.
type ReadTx struct {
	db   *DB
	id   uint64
	ts   int64
	done bool
}

// BeginReadOnly starts a snapshot read transaction pinned at the current
// applied-through watermark: the newest timestamp whose commit — and every
// older commit — has fully installed its writes. Pinning lastCommitTS
// instead would be wrong: the commit pipeline publishes lastCommitTS in
// its sequencing stage, before the group-commit durability wait and the
// apply stage, so a snapshot pinned there could miss versions it is
// entitled to see (and then find them on a re-read — a torn, non-stable
// cut). appliedTS only covers fully applied prefixes, and no later commit
// can ever install a version at or below it, so the cut is immutable.
func (db *DB) BeginReadOnly() *ReadTx {
	db.snapMu.Lock()
	db.nextSnapID++
	id := db.nextSnapID
	ts := db.appliedTS.Load()
	db.snaps[id] = ts
	db.snapMu.Unlock()
	return &ReadTx{db: db, id: id, ts: ts}
}

// TS returns the pinned snapshot timestamp (unix nanoseconds).
func (rtx *ReadTx) TS() int64 { return rtx.ts }

// Get returns the row visible at the snapshot under the given primary-key
// values, decoded into a row the caller owns (see Tx for what a decoded
// row points to).
func (rtx *ReadTx) Get(t *Table, keyVals ...sqltypes.Value) (sqltypes.Row, bool, error) {
	if t.meta.Heap {
		return nil, false, fmt.Errorf("engine: Get on heap table %s requires a RID key", t.meta.Name)
	}
	var kb [64]byte // most keys fit, and then the lookup key stays off the heap
	return rtx.GetByKey(t, sqltypes.EncodeKey(kb[:0], keyVals...), nil)
}

// GetByKey returns the columns ords (nil: the whole row) of the row
// visible at the snapshot under raw clustered-key bytes, as Get does.
func (rtx *ReadTx) GetByKey(t *Table, key []byte, ords []int) (sqltypes.Row, bool, error) {
	if rtx.done {
		return nil, false, ErrTxDone
	}
	row, ok := t.getAt(key, rtx.ts, ords)
	if ok {
		rtx.db.m.snapshotReads.Inc()
	}
	return row, ok, nil
}

// GetStored returns the stored bytes of the row visible at the snapshot
// under raw clustered-key bytes, undecoded; they never change.
func (rtx *ReadTx) GetStored(t *Table, key []byte) ([]byte, bool, error) {
	if rtx.done {
		return nil, false, ErrTxDone
	}
	stored, ok := t.storedAt(key, rtx.ts)
	if ok {
		rtx.db.m.snapshotReads.Inc()
	}
	return stored, ok, nil
}

// Scan iterates the rows visible at the snapshot in clustered-key order,
// under Table.Scan's callback contract: key and row are valid only during
// the callback.
func (rtx *ReadTx) Scan(t *Table, fn func(key []byte, row sqltypes.Row) bool) error {
	return rtx.ScanColumns(t, nil, nil, nil, fn)
}

// ScanRange is Scan bounded to start <= key < end (nil = unbounded).
func (rtx *ReadTx) ScanRange(t *Table, start, end []byte, fn func(key []byte, row sqltypes.Row) bool) error {
	return rtx.ScanColumns(t, nil, start, end, fn)
}

// ScanColumns is ScanRange decoding only the columns ords of every row
// (nil: the whole row): row[i] is column ords[i].
func (rtx *ReadTx) ScanColumns(t *Table, ords []int, start, end []byte, fn func(key []byte, row sqltypes.Row) bool) error {
	if rtx.done {
		return ErrTxDone
	}
	// Counted here and added once: shard scanners share the counter.
	n := 0
	t.scanAt(start, end, rtx.ts, ords, func(k []byte, row sqltypes.Row) bool {
		n++
		return fn(k, row)
	})
	rtx.db.m.snapshotReads.Add(int64(n))
	return nil
}

// ScanRangeStored is Table.ScanRangeStored over the rows visible at the
// snapshot: undecoded stored bytes, no table lock held while fn runs.
func (rtx *ReadTx) ScanRangeStored(t *Table, start, end []byte, fn func(key, stored []byte) bool) error {
	if rtx.done {
		return ErrTxDone
	}
	rtx.db.m.snapshotReads.Add(int64(t.scanStoredAt(start, end, rtx.ts, fn)))
	return nil
}

// Close unpins the snapshot, letting version GC advance past it, and
// observes how far the database moved while the snapshot was held: the
// advance of the applied-through watermark between pin and close (zero on
// an idle database, however long the snapshot was open). Close is
// idempotent.
func (rtx *ReadTx) Close() {
	if rtx.done {
		return
	}
	rtx.done = true
	db := rtx.db
	db.snapMu.Lock()
	delete(db.snaps, rtx.id)
	db.snapMu.Unlock()
	if lag := db.appliedTS.Load() - rtx.ts; lag > 0 {
		db.m.snapshotLag.Observe(float64(lag) / 1e9)
	} else {
		db.m.snapshotLag.Observe(0)
	}
}

// --- Version GC --------------------------------------------------------

// versionGCInterval is the default pace of the background sweep that
// reclaims row versions older than the oldest active snapshot; override
// it per instance with Options.VersionGCInterval.
const versionGCInterval = 250 * time.Millisecond

// gcHorizon returns the timestamp below which superseded versions are
// unreachable: the oldest active snapshot, or the applied-through
// watermark when no snapshot is pinned (NOT lastCommitTS — a snapshot
// pinned just after this computation pins appliedTS, which may trail
// lastCommitTS, and the horizon must never exceed any future pin).
// Computed under snapMu so it serializes with BeginReadOnly's
// pin-and-register.
func (db *DB) gcHorizon() int64 {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	if len(db.snaps) == 0 {
		return db.appliedTS.Load()
	}
	min := int64(0)
	first := true
	for _, ts := range db.snaps {
		if first || ts < min {
			min = ts
			first = false
		}
	}
	return min
}

// GCVersions runs one synchronous version-GC sweep over every table,
// returning the number of versions reclaimed. The background loop calls it
// on a ticker; tests call it directly. A sweep is skipped (returns 0) when
// a checkpoint or restore holds the database quiescent.
func (db *DB) GCVersions() int {
	if !db.quiesce.TryRLock() {
		return 0
	}
	defer db.quiesce.RUnlock()
	tr := db.obs.NewTrace("version_gc")
	horizon := db.gcHorizon()
	reclaimed := 0
	for _, t := range db.Tables() {
		reclaimed += t.gcVersions(horizon)
	}
	if reclaimed > 0 {
		db.m.gcReclaimed.Add(int64(reclaimed))
		db.m.versionsLive.Add(-float64(reclaimed))
		tr.SetAttr("reclaimed", strconv.Itoa(reclaimed))
		tr.Finish(nil)
	} else {
		// An idle sweep (nothing reclaimed) leaves no trace: at 4 sweeps/s
		// it would otherwise dominate the ring within seconds.
		tr.Discard()
	}
	return reclaimed
}

// versionGCLoop is the background sweeper started by Open and stopped by
// Close (before Close quiesces, to avoid a lock cycle).
func (db *DB) versionGCLoop() {
	defer close(db.gcDone)
	tick := time.NewTicker(db.opts.VersionGCInterval)
	defer tick.Stop()
	for {
		select {
		case <-db.gcStop:
			return
		case <-tick.C:
			db.GCVersions()
		}
	}
}

// stopVersionGC halts the background sweeper and waits for it to exit.
func (db *DB) stopVersionGC() {
	db.gcStopOnce.Do(func() {
		close(db.gcStop)
		<-db.gcDone
	})
}

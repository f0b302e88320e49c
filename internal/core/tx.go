package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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

// Tx is a ledger-aware transaction. DML on ledger tables transparently
// maintains the history table, assigns the hidden transaction/sequence
// columns, and streams row-version hashes into per-table Merkle trees
// whose roots become the transaction's ledger entry at commit (§3.2).
//
// Regular (non-ledger) tables are reachable through Raw().
//
// On a database with several shards the transaction is a router (route is
// set, l and etx are not): every operation goes to the participant — a Tx
// of this same type on one shard, begun on first touch — that the row's
// primary key hashes to, and Commit runs two-phase commit when more than
// one participant wrote (twopc.go). On a one-shard database the
// transaction is the participant itself and none of that exists.
type Tx struct {
	l   *Shard
	etx *engine.Tx

	// state holds the per-transaction ledger bookkeeping (Merkle trees,
	// savepoint snapshots, the commit-time roots buffer). It is nil until
	// the first ledger DML or savepoint, so read-only ledger transactions
	// allocate none of it, and it is recycled through txStatePool when the
	// transaction finishes.
	state *txState

	// trace is the transaction's end-to-end trace (nil when tracing is
	// off). ownsTrace marks the transaction that created it and must
	// finish it; a 2PC participant shares the coordinator's trace and
	// never finishes it.
	trace     *obs.Trace
	ownsTrace bool

	route *txRoute
}

// txRoute is the router state of a transaction on a multi-shard database.
type txRoute struct {
	db    *DB
	user  string
	parts []*Tx // index = shard; nil until touched
	done  bool
}

// txState is the pooled ledger bookkeeping of one transaction.
type txState struct {
	// trees holds the per-ledger-table streaming Merkle tree of row
	// versions updated by this transaction.
	trees map[uint32]*merkle.Streaming
	// spSnaps[token] captures the state of every tree when savepoint
	// token was created, aligned with the engine's savepoint stack.
	spSnaps [][]treeSnap
	// roots is the commit-time scratch buffer for the sorted per-table
	// roots. Safe to reuse across transactions: the engine serializes it
	// into the WAL commit record during Commit and the ledger hook copies
	// it into the queued entry (assignBlock), so nothing aliases it after
	// Commit returns.
	roots []wal.TableRoot
	// row is where the transaction expands the visible row of each DML
	// call into a storage row, which lives until it is encoded.
	row sqltypes.Row
}

var txStatePool = sync.Pool{New: func() any {
	return &txState{trees: make(map[uint32]*merkle.Streaming)}
}}

type treeSnap struct {
	tableID uint32
	snap    merkle.Snapshot
}

// Begin starts a ledger transaction on behalf of user. When tracing is
// enabled the transaction gets a fresh trace rooted here: the engine and
// WAL contribute child spans (lock waits, row hashing, encode, group
// commit, apply), and Commit/Rollback decide retention (tail sampling).
func (db *DB) Begin(user string) *Tx {
	if len(db.shards) == 1 {
		return db.shards[0].begin(user)
	}
	return &Tx{
		trace: db.obs.NewTrace("tx"), // finished by the router's Commit or Rollback
		route: &txRoute{db: db, user: user, parts: make([]*Tx, len(db.shards))},
	}
}

// begin starts a transaction on this shard with a trace of its own.
func (l *Shard) begin(user string) *Tx {
	tx := l.beginWithTrace(user, l.obs.NewTrace("tx"))
	tx.ownsTrace = tx.trace != nil
	return tx
}

// beginWithTrace starts a transaction that records into tr without owning
// it — a participant, whose router holds the one trace spanning every
// shard's legs.
func (l *Shard) beginWithTrace(user string, tr *obs.Trace) *Tx {
	tx := &Tx{l: l, etx: l.edb.Begin(user)}
	if tr != nil {
		tx.trace = tr
		tx.etx.SetTrace(tr)
	}
	return tx
}

// at returns the participant on shard i, beginning it on first touch.
func (tx *Tx) at(i int) *Tx {
	r := tx.route
	if r.parts[i] == nil {
		r.parts[i] = r.db.shards[i].beginWithTrace(r.user, tx.trace)
	}
	return r.parts[i]
}

// routeRow resolves a row of lt to the participant and table part that
// store it.
func (tx *Tx) routeRow(lt *LedgerTable, visible sqltypes.Row) (*Tx, *LedgerTable, error) {
	if tx.route.done {
		return nil, nil, ErrTxUsed
	}
	i, err := lt.shardOfRow(visible)
	if err != nil {
		return nil, nil, err
	}
	return tx.at(i), lt.parts[i], nil
}

// routeKey is routeRow for explicit primary-key values.
func (tx *Tx) routeKey(lt *LedgerTable, keyVals []sqltypes.Value) (*Tx, *LedgerTable, error) {
	if tx.route.done {
		return nil, nil, ErrTxUsed
	}
	i := lt.ShardOf(keyVals...)
	return tx.at(i), lt.parts[i], nil
}

// each runs fn on every shard's participant, in shard order.
func (tx *Tx) each(fn func(i int, p *Tx) error) error {
	if tx.route.done {
		return ErrTxUsed
	}
	for i := range tx.route.parts {
		if err := fn(i, tx.at(i)); err != nil {
			return err
		}
	}
	return nil
}

// Trace returns the transaction's trace (nil when tracing is off). Callers
// may annotate it with statement or application context.
func (tx *Tx) Trace() *obs.Trace { return tx.trace }

// finishTrace ends the transaction's trace if this transaction owns it,
// and drops every reference to it either way (a finished trace is recycled;
// the engine transaction must not record into it afterwards). Idempotent:
// a failed Commit finishes the error trace, and the caller's deferred
// Rollback then finds nothing left to finish.
func (tx *Tx) finishTrace(err error) {
	if tx.trace == nil {
		return
	}
	if tx.ownsTrace {
		tx.trace.SetAttr(obs.AttrRows, strconv.Itoa(tx.etx.WriteCount()))
		tx.trace.Finish(err)
	}
	tx.trace = nil
	tx.etx.SetTrace(nil)
}

// appendHashes hashes the row versions one DML operation wrote, from the
// bytes it stored — the version it ended, if any, as a delete, then the one
// it created, if any, as an insert: the order of the operation — and
// appends them to the table's tree. Tracing times the operation's hashing
// as one row_hash span.
func (tx *Tx) appendHashes(lt *LedgerTable, ended, created []byte) error {
	var start time.Time
	if tx.trace != nil {
		start = time.Now()
	}
	tr, layout := tx.tree(lt), lt.shape.Load().layout
	if ended != nil {
		h, err := layout.HashEncoded(ended, serial.OpDelete, nil)
		if err != nil {
			return err
		}
		tr.Append(h)
		tx.l.m.rowsHashed.Inc()
	}
	if created != nil {
		h, err := layout.HashEncoded(created, serial.OpInsert, lt.skipEnd)
		if err != nil {
			return err
		}
		tr.Append(h)
		tx.l.m.rowsHashed.Inc()
	}
	if tx.trace != nil {
		tx.trace.AddTimed(obs.SpanRowHash, start, time.Since(start))
	}
	return nil
}

// newVersion turns a visible row into the version this transaction creates
// under seq: expanded into the transaction's scratch row, validated once
// and encoded once, into the exact-size allocation that is logged, hashed
// and stored. key is its clustered key, computed once (nil on a heap).
func (tx *Tx) newVersion(lt *LedgerTable, visible sqltypes.Row, seq uint32) (key, enc []byte, err error) {
	st := tx.ensureState()
	full, err := lt.fullRowInto(st.row, visible, tx.etx.ID(), seq)
	if err != nil {
		return nil, nil, err
	}
	st.row = full
	s := lt.table.Schema()
	if err := s.Validate(full); err != nil {
		return nil, nil, err
	}
	if len(s.Key) > 0 {
		key = lt.table.KeyFor(full)
	}
	return key, engine.EncodeStoredRow(full), nil
}

// endVersion moves a version this transaction superseded to the history
// table — its stored bytes with the end columns spliced in: nothing is
// decoded — and appends the operation's hashes: the ended version, then
// created, the version that replaced it (nil when the operation deleted).
// It fails only on stored bytes that are no row of the table, which no
// writer leaves behind (verification reports them, invariant 4); the
// engine has buffered the operation by then, so the transaction is to be
// rolled back, to a savepoint or altogether.
func (tx *Tx) endVersion(lt *LedgerTable, before []byte, endSeq uint32, created []byte) error {
	ended, err := sqltypes.SpliceBigInts(before, lt.shape.Load().cols,
		[]int{lt.endTxOrd, lt.endSeqOrd}, []int64{int64(tx.etx.ID()), int64(endSeq)})
	if err != nil {
		return fmt.Errorf("core: stored row of %s: %w", lt.Name(), err)
	}
	if _, err := tx.etx.InsertHeap(lt.history, ended); err != nil {
		return err
	}
	return tx.appendHashes(lt, ended, created)
}

// ID returns the transaction id, which numbers the transaction within
// one shard's chain: on a multi-shard database it panics with
// ErrMultiShard, as Raw does.
func (tx *Tx) ID() uint64 { return tx.Raw().ID() }

// Raw exposes the underlying engine transaction for DML on regular
// tables. Do not use it to modify ledger tables directly: that bypasses
// history and hashing and is exactly the class of modification the
// verification process exists to detect.
func (tx *Tx) Raw() *engine.Tx {
	if tx.route != nil {
		panic(multiShard("Tx.Raw", len(tx.route.parts)))
	}
	return tx.etx
}

// ensureState materializes the pooled ledger bookkeeping.
func (tx *Tx) ensureState() *txState {
	if tx.state == nil {
		tx.state = txStatePool.Get().(*txState)
	}
	return tx.state
}

// releaseState recycles the transaction's Merkle trees and bookkeeping.
// Called exactly once, when the transaction finishes (commit or rollback);
// both paths run on the transaction's own goroutine, so the caller's
// deferred Rollback after a successful Commit observes state == nil and
// does not double-release.
func (tx *Tx) releaseState() {
	st := tx.state
	if st == nil {
		return
	}
	tx.state = nil
	tx.etx.Roots = nil // drop the alias into st.roots before recycling
	for id, tr := range st.trees {
		merkle.PutStreaming(tr)
		delete(st.trees, id)
	}
	for i := range st.spSnaps {
		st.spSnaps[i] = nil
	}
	st.spSnaps = st.spSnaps[:0]
	st.roots = st.roots[:0]
	clear(st.row[:cap(st.row)]) // the values point into the caller's rows
	txStatePool.Put(st)
}

func (tx *Tx) tree(lt *LedgerTable) *merkle.Streaming {
	st := tx.ensureState()
	t := st.trees[lt.table.ID()]
	if t == nil {
		t = merkle.GetStreaming()
		st.trees[lt.table.ID()] = t
	}
	return t
}

// Insert adds a row (visible columns only, in visible-column order) to a
// ledger table.
func (tx *Tx) Insert(lt *LedgerTable, visible sqltypes.Row) error {
	if tx.route != nil {
		p, part, err := tx.routeRow(lt, visible)
		if err != nil {
			return err
		}
		return p.Insert(part, visible)
	}
	key, enc, err := tx.newVersion(lt, visible, tx.etx.NextSeq())
	if err != nil {
		return err
	}
	if key == nil {
		_, err = tx.etx.InsertHeap(lt.table, enc)
	} else {
		err = tx.etx.InsertPrepared(lt.table, key, enc)
	}
	if err != nil {
		return err
	}
	return tx.appendHashes(lt, nil, enc)
}

// batchParallelMin is the smallest batch hashed on worker goroutines;
// below it the fan-out overhead exceeds the hashing work.
const batchParallelMin = 16

// prepared holds one row's results from the parallel hashing phase of
// InsertBatch: its clustered key, the encoded storage row, the row
// version hash and the pre-assigned sequence number.
type prepared struct {
	key  []byte
	enc  []byte // engine.EncodeStoredRow of the expanded row
	hash merkle.Hash
	seq  uint32
	err  error
}

// prepPool recycles the per-batch prepared slices: a 1000-row batch's
// slice is ~100KB, and allocating (and zeroing) one per call dominated
// the batch fast path's allocation profile.
var prepPool = sync.Pool{New: func() any { return new([]prepared) }}

// InsertBatch adds many rows to a ledger table, serializing and hashing
// the row versions on a worker pool while preserving the exact Merkle
// append order, engine write order and sequence numbers of the equivalent
// one-at-a-time Inserts — so per-table roots, ledger entries and digests
// are byte-identical to the serial path (pinned by
// TestInsertBatchEquivalence). Uses one worker per CPU.
//
// On error the transaction's ledger state is consistent (hashes for the
// rows inserted before the failure are appended, as with serial Inserts),
// but the sequence counter may have advanced past the failed row; roll
// back the transaction, or to a prior savepoint, before committing.
func (tx *Tx) InsertBatch(lt *LedgerTable, rows []sqltypes.Row) error {
	return tx.InsertBatchParallel(lt, rows, 0)
}

// InsertBatchParallel is InsertBatch with an explicit worker count
// (0 = one per CPU). Exposed for the ingest-scaling benchmarks. On a
// multi-shard database each shard's rows are batched on that shard in
// their original order, so routing is order-insensitive and digests stay
// reproducible.
func (tx *Tx) InsertBatchParallel(lt *LedgerTable, rows []sqltypes.Row, workers int) error {
	if tx.route != nil {
		if tx.route.done {
			return ErrTxUsed
		}
		perShard := make([][]sqltypes.Row, len(tx.route.parts))
		for _, r := range rows {
			i, err := lt.shardOfRow(r)
			if err != nil {
				return err
			}
			perShard[i] = append(perShard[i], r)
		}
		for i, chunk := range perShard {
			if len(chunk) == 0 {
				continue
			}
			if err := tx.at(i).InsertBatchParallel(lt.parts[i], chunk, workers); err != nil {
				return err
			}
		}
		return nil
	}
	n := len(rows)
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	schema := lt.table.Schema()
	if workers == 1 || n < batchParallelMin || len(schema.Key) == 0 {
		for _, r := range rows {
			if err := tx.Insert(lt, r); err != nil {
				return err
			}
		}
		tx.l.m.hashBatchSize.Observe(float64(n))
		return nil
	}

	layout := lt.shape.Load().layout
	txID := tx.etx.ID()

	// Sequence numbers are assigned serially, in row order, before the
	// fan-out — they are part of the hashed row content and must match
	// the serial path exactly. The prepared slice is recycled across
	// batches; every field of every element is written below, so stale
	// pool contents never leak into a batch.
	pp := prepPool.Get().(*[]prepared)
	preps := *pp
	if cap(preps) < n {
		preps = make([]prepared, n)
	} else {
		preps = preps[:n]
	}
	defer func() {
		clear(preps)
		*pp = preps
		prepPool.Put(pp)
	}()
	for i := range preps {
		preps[i].seq = tx.etx.NextSeq()
	}

	// A batch contributes one accumulated row_hash span covering the whole
	// parallel phase (per-row timing at this rate would cost more clock
	// reads than hashing).
	var hashStart time.Time
	if tx.trace != nil {
		hashStart = time.Now()
	}

	// Workers pull row indices off a shared counter and do the expensive
	// per-row work: storage-row construction, validation, clustered-key
	// encoding, row encoding and SHA-256 row hashing. The expanded row is
	// needed only for that long, so each worker expands into one buffer.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst sqltypes.Row
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				p := &preps[i]
				full, err := lt.fullRowInto(dst, rows[i], txID, p.seq)
				if err == nil {
					dst = full
					err = schema.Validate(full)
				}
				p.key, p.enc, p.err = nil, nil, err
				if err != nil {
					continue
				}
				p.key = lt.table.KeyFor(full)
				p.enc = engine.EncodeStoredRow(full)
				p.hash, p.err = layout.HashEncoded(p.enc, serial.OpInsert, lt.skipEnd)
			}
		}()
	}
	wg.Wait()
	if tx.trace != nil {
		tx.trace.AddTimed(obs.SpanRowHash, hashStart, time.Since(hashStart))
	}

	// Apply serially in row order: engine write, then Merkle append —
	// the same per-row order as Insert, so WAL records and tree leaves
	// are identical to the serial path.
	tx.etx.ReserveWrites(lt.table, n)
	tr := tx.tree(lt)
	hashed := 0
	defer func() {
		tx.l.m.rowsHashed.Add(int64(hashed))
		tx.l.m.hashBatchSize.Observe(float64(n))
	}()
	for i := range preps {
		p := &preps[i]
		if p.err != nil {
			return p.err
		}
		if err := tx.etx.InsertPrepared(lt.table, p.key, p.enc); err != nil {
			return err
		}
		tr.Append(p.hash)
		hashed++
	}
	return nil
}

// Delete removes the row with the given primary-key values, moving the
// deleted version to the history table.
func (tx *Tx) Delete(lt *LedgerTable, keyVals ...sqltypes.Value) error {
	if tx.route != nil {
		p, part, err := tx.routeKey(lt, keyVals)
		if err != nil {
			return err
		}
		return p.Delete(part, keyVals...)
	}
	if lt.history == nil {
		return fmt.Errorf("%w: %s", ErrAppendOnly, lt.Name())
	}
	before, err := tx.etx.DeleteStored(lt.table, sqltypes.EncodeKey(nil, keyVals...))
	if err != nil {
		return err
	}
	return tx.endVersion(lt, before, tx.etx.NextSeq(), nil)
}

// Update replaces the row whose primary key matches visible, preserving
// the superseded version in the history table. Hashing order follows the
// operation: the deleted old version first, then the new version.
func (tx *Tx) Update(lt *LedgerTable, visible sqltypes.Row) error {
	if tx.route != nil {
		p, part, err := tx.routeRow(lt, visible)
		if err != nil {
			return err
		}
		return p.Update(part, visible)
	}
	if lt.history == nil {
		return fmt.Errorf("%w: %s", ErrAppendOnly, lt.Name())
	}
	endSeq := tx.etx.NextSeq()
	key, enc, err := tx.newVersion(lt, visible, tx.etx.NextSeq())
	if err != nil {
		return err
	}
	before, err := tx.etx.UpdateStored(lt.table, key, enc)
	if err != nil {
		return err
	}
	return tx.endVersion(lt, before, endSeq, enc)
}

// refreshRow rewrites a current row version in place under a fresh start
// transaction/sequence and hashes it as an insert operation of this
// transaction. Used exclusively by ledger truncation (§5.2) to move a
// row's digest out of a block about to be deleted; unlike Update it does
// not write a history row, because a history row would keep referencing
// the truncated transaction through its insert-side hash.
func (tx *Tx) refreshRow(lt *LedgerTable, key []byte) error {
	stored, ok, err := tx.etx.GetStored(lt.table, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: refresh target vanished in %s", lt.Name())
	}
	next, err := sqltypes.SpliceBigInts(stored, lt.shape.Load().cols,
		[]int{lt.startTxOrd, lt.startSeqOrd}, []int64{int64(tx.etx.ID()), int64(tx.etx.NextSeq())})
	if err != nil {
		return fmt.Errorf("core: stored row of %s: %w", lt.Name(), err)
	}
	if _, err := tx.etx.UpdateStored(lt.table, key, next); err != nil {
		return err
	}
	return tx.appendHashes(lt, nil, next)
}

// Get returns the visible row with the given primary-key values. Only the
// visible columns are decoded — the hidden ones are stepped over — so the
// read costs what it costs on a regular table with those columns. The row
// is the caller's to keep and edit, as with engine.Tx.Get; only what a
// string or binary value points to is shared, with storage, and must not
// be written through Value.Bytes.
func (tx *Tx) Get(lt *LedgerTable, keyVals ...sqltypes.Value) (sqltypes.Row, bool, error) {
	if tx.route != nil {
		p, part, err := tx.routeKey(lt, keyVals)
		if err != nil {
			return nil, false, err
		}
		return p.Get(part, keyVals...)
	}
	var kb [64]byte // most keys fit, and then the lookup key stays off the heap
	key, err := lt.getKey(kb[:0], keyVals)
	if err != nil {
		return nil, false, err
	}
	return tx.etx.GetByKey(lt.table, key, lt.shape.Load().visible)
}

// getKey appends the clustered key of a point read to dst.
func (lt *LedgerTable) getKey(dst []byte, keyVals []sqltypes.Value) ([]byte, error) {
	if len(lt.table.Schema().Key) == 0 {
		return nil, fmt.Errorf("core: Get on %s, which has no primary key", lt.Name())
	}
	return sqltypes.EncodeKey(dst, keyVals...), nil
}

// Scan iterates the visible rows of a ledger table in primary-key order
// (on a multi-shard database shard by shard: ordered within a shard, not
// across them), decoding the visible columns only. Every row is decoded
// into one buffer the scan reuses: the row passed to fn is valid only
// during the callback — Clone it to keep it (its values may be copied out
// freely; what they point to never changes).
func (tx *Tx) Scan(lt *LedgerTable, fn func(row sqltypes.Row) bool) error {
	return tx.ScanPrefix(lt, fn) // the empty prefix: every row
}

// ScanPrefix iterates the visible rows whose leading primary-key columns
// equal vals, in primary-key order. The callback contract is as for Scan.
func (tx *Tx) ScanPrefix(lt *LedgerTable, fn func(row sqltypes.Row) bool, vals ...sqltypes.Value) error {
	if tx.route != nil {
		more := true
		return tx.each(func(i int, p *Tx) error {
			if !more {
				return nil
			}
			return p.ScanPrefix(lt.parts[i], func(r sqltypes.Row) bool { more = fn(r); return more }, vals...)
		})
	}
	start, end := engine.PrefixRange(vals...)
	return tx.etx.ScanColumns(lt.table, lt.shape.Load().visible, start, end,
		func(_ []byte, row sqltypes.Row) bool { return fn(row) })
}

// Savepoint creates a savepoint, snapshotting the O(log N) state of every
// transaction Merkle tree (§3.2.1). On a multi-shard database it is taken
// on every shard's participant, so their savepoint stacks stay level and
// one token names the same point on each.
func (tx *Tx) Savepoint() int {
	if tx.route != nil {
		token := -1
		tx.each(func(_ int, p *Tx) error { token = p.Savepoint(); return nil })
		return token
	}
	token := tx.etx.Savepoint()
	st := tx.ensureState()
	snaps := make([]treeSnap, 0, len(st.trees))
	for tid, tr := range st.trees {
		snaps = append(snaps, treeSnap{tableID: tid, snap: tr.Snapshot()})
	}
	if token != len(st.spSnaps) {
		// Engine and core savepoint stacks must advance in lockstep.
		panic(fmt.Sprintf("core: savepoint stacks diverged (%d != %d)", token, len(st.spSnaps)))
	}
	st.spSnaps = append(st.spSnaps, snaps)
	return token
}

// RollbackTo rolls the transaction back to a savepoint, restoring both
// the engine write buffer and the Merkle tree state.
func (tx *Tx) RollbackTo(token int) error {
	if tx.route != nil {
		return tx.each(func(_ int, p *Tx) error { return p.RollbackTo(token) })
	}
	st := tx.state
	if st == nil || token < 0 || token >= len(st.spSnaps) {
		return fmt.Errorf("core: invalid savepoint %d", token)
	}
	if err := tx.etx.RollbackTo(token); err != nil {
		return err
	}
	snaps := st.spSnaps[token]
	st.spSnaps = st.spSnaps[:token+1]
	restored := make(map[uint32]bool, len(snaps))
	for _, s := range snaps {
		if tr := st.trees[s.tableID]; tr != nil {
			tr.Restore(s.snap)
			restored[s.tableID] = true
		}
	}
	for tid, tr := range st.trees {
		if !restored[tid] {
			tr.Reset() // tree created after the savepoint
		}
	}
	return nil
}

// Commit finalizes the per-table Merkle roots, hands them to the engine
// (which builds the ledger entry inside the commit critical section) and
// commits. Returns the commit timestamp in unix nanoseconds.
func (tx *Tx) Commit() error {
	_, err := tx.CommitTS()
	return err
}

// CommitTS is Commit returning the commit timestamp (on a multi-shard
// database, the latest among the shards that committed).
func (tx *Tx) CommitTS() (int64, error) {
	if tx.route != nil {
		return tx.commitRouted()
	}
	tx.finalizeRoots()
	ts, err := tx.l.edb.Commit(tx.etx)
	if err == nil {
		// A failed commit leaves the engine transaction open; Rollback
		// releases the state then.
		tx.releaseState()
	}
	// Finish the trace either way: a failed commit's trace is retained as
	// an error trace now, not when the caller eventually rolls back.
	tx.finishTrace(err)
	return ts, err
}

// finalizeRoots computes the sorted per-table Merkle roots and installs
// them on the engine transaction — the last ledger step before the engine
// sees the commit (or the prepare, on the cross-shard path).
func (tx *Tx) finalizeRoots() {
	st := tx.state
	if st == nil {
		return
	}
	roots := st.roots[:0]
	for tid, tr := range st.trees {
		if tr.Count() > 0 {
			roots = append(roots, wal.TableRoot{TableID: tid, Root: tr.Root()})
		}
	}
	slices.SortFunc(roots, func(a, b wal.TableRoot) int { return cmp.Compare(a.TableID, b.TableID) })
	st.roots = roots
	if len(roots) > 0 {
		tx.etx.Roots = roots
	}
}

// prepare runs 2PC phase 1 on this participant: finalize the Merkle
// roots, then durably log the write set plus a PREPARE record carrying
// gid. Locks stay held; the ledger state stays allocated until the
// decision is applied.
func (tx *Tx) prepare(gid uint64) error {
	tx.finalizeRoots()
	return tx.l.edb.Prepare(tx.etx, gid)
}

// commitPrepared applies a commit decision to a prepared participant.
func (tx *Tx) commitPrepared() (int64, error) {
	ts, err := tx.l.edb.CommitPrepared(tx.etx)
	if err == nil {
		tx.releaseState()
	}
	tx.finishTrace(err)
	return ts, err
}

// abortPrepared applies an abort decision to a prepared participant.
func (tx *Tx) abortPrepared() error {
	err := tx.l.edb.AbortPrepared(tx.etx)
	tx.releaseState()
	tx.finishTrace(err)
	return err
}

// Rollback abandons the transaction.
func (tx *Tx) Rollback() error {
	if tx.route != nil {
		return tx.rollbackRouted()
	}
	err := tx.etx.Rollback()
	tx.releaseState()
	tx.finishTrace(nil)
	if err == engine.ErrTxDone {
		return nil
	}
	return err
}

package engine

import (
	"errors"
	"fmt"
	"sort"

	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// Engine errors.
var (
	ErrNotFound     = errors.New("engine: row not found")
	ErrDuplicateKey = errors.New("engine: duplicate key")
	ErrTxDone       = errors.New("engine: transaction already finished")
	ErrReadOnly     = errors.New("engine: table is not writable in this context")
	// ErrClosed is returned to commits and checkpoints on a closed database.
	ErrClosed = errors.New("engine: database closed")
)

// Tx is a read-committed transaction with row-level write locks.
// Writes are buffered in per-table overlays and applied to shared storage
// atomically at commit; the buffered operations become the transaction's
// WAL records. Savepoints capture positions in the write buffer and can be
// rolled back to (partial rollback, §3.2.1).
//
// Tx is not safe for concurrent use by multiple goroutines.
type Tx struct {
	db   *DB
	id   uint64
	user string
	done bool

	writes   []writeOp
	overlays map[uint32]*overlay
	locks    map[lockKey]struct{}
	seq      uint32 // ledger operation sequence counter

	savepoints []savepoint

	// prepared marks the transaction as phase-1 complete in a cross-shard
	// two-phase commit: its DML and PREPARE records are durable, its row
	// locks stay held, and only CommitPrepared or AbortPrepared may finish
	// it (twopc.go). gid is the coordinator's global transaction id.
	prepared bool
	gid      uint64
	// inDoubt marks a transaction reconstructed by recovery; resolving it
	// removes it from db.inDoubt (single-threaded, during open).
	inDoubt bool

	// trace is the transaction's end-to-end trace (nil when tracing is
	// off). The engine contributes lock-wait, WAL-encode and commit-stage
	// spans; owners (the ledger core) create and finish it.
	trace *obs.Trace

	// Roots is filled by the ledger core before commit with the per-table
	// Merkle roots of the row versions this transaction updated.
	Roots []wal.TableRoot
	// OnRollbackTo, when set, is invoked after a savepoint rollback with
	// the savepoint token, letting the ledger core restore its Merkle
	// state alongside (§3.2.1 savepoint support).
	OnRollbackTo func(token int)
}

// savepoint captures the rollback position: the write-buffer length and
// the ledger sequence counter at creation time.
type savepoint struct {
	nwrites int
	seq     uint32
}

type writeOp struct {
	typ     wal.RecordType
	tableID uint32
	key     []byte
	after   sqltypes.Row
	// enc, if non-nil, is the pre-encoded WAL payload for this op.
	// Batched ingest encodes payloads on worker goroutines; Commit
	// encodes the rest itself.
	enc []byte
}

// encodeWrites turns the write set into WAL records, leaving room for the
// COMMIT or PREPARE record that ends the batch. Payloads
// not pre-encoded by batched ingest are encoded into one shared arena sized
// from a per-row hint; a record's payload slice stays valid even if a later
// append grows the arena, because the old backing array is left intact.
func (tx *Tx) encodeWrites() []wal.Record {
	recs := make([]wal.Record, 0, len(tx.writes)+1)
	size := 0
	for _, w := range tx.writes {
		if w.enc == nil {
			size += wal.DMLSizeHint(w.key, w.after)
		}
	}
	arena := make([]byte, 0, size)
	for _, w := range tx.writes {
		payload := w.enc
		if payload == nil {
			start := len(arena)
			arena = wal.AppendDML(arena, w.typ, wal.DMLPayload{TableID: w.tableID, Key: w.key, After: w.after})
			payload = arena[start:len(arena):len(arena)]
		}
		recs = append(recs, wal.Record{Type: w.typ, TxID: tx.id, Payload: payload})
	}
	return recs
}

type overlay struct {
	m map[string]overlayEntry
}

type overlayEntry struct {
	deleted bool
	row     sqltypes.Row
}

// ID returns the transaction id.
func (tx *Tx) ID() uint64 { return tx.id }

// User returns the identity that started the transaction.
func (tx *Tx) User() string { return tx.user }

// NextSeq returns the next ledger operation sequence number within the
// transaction, starting at 1.
func (tx *Tx) NextSeq() uint32 {
	tx.seq++
	return tx.seq
}

// CurrentSeq returns the last sequence number handed out.
func (tx *Tx) CurrentSeq() uint32 { return tx.seq }

// SetTrace attaches the transaction's trace (nil is fine). The caller
// that sets it owns Finish; the engine only records spans into it.
func (tx *Tx) SetTrace(tr *obs.Trace) { tx.trace = tr }

// Trace returns the transaction's trace (nil when tracing is off).
func (tx *Tx) Trace() *obs.Trace { return tx.trace }

func (tx *Tx) overlayFor(tableID uint32) *overlay {
	ov := tx.overlays[tableID]
	if ov == nil {
		ov = &overlay{m: make(map[string]overlayEntry)}
		tx.overlays[tableID] = ov
	}
	return ov
}

func (tx *Tx) lock(t *Table, key []byte) error {
	lk := lockKey{table: t.meta.ID, key: string(key)}
	if _, held := tx.locks[lk]; held {
		return nil
	}
	wait, start, err := tx.db.locks.acquireTraced(tx.id, t.meta.ID, key, tx.db.opts.LockTimeout, tx.trace.ID())
	if wait > 0 {
		// Contended only: the trace accumulates every lock wait in the
		// transaction into one span; the uncontended path records nothing.
		tx.trace.AddTimed(obs.SpanLockWait, start, wait)
	}
	if err != nil {
		return fmt.Errorf("%w (table %s)", err, t.meta.Name)
	}
	tx.locks[lk] = struct{}{}
	return nil
}

// read returns the row visible to this transaction under key: its own
// uncommitted write if any, otherwise the committed row.
func (tx *Tx) read(t *Table, key []byte) (sqltypes.Row, bool) {
	if ov := tx.overlays[t.meta.ID]; ov != nil {
		if e, ok := ov.m[string(key)]; ok {
			return e.row, !e.deleted
		}
	}
	return t.get(key)
}

// Get returns the row under the given primary-key values.
func (tx *Tx) Get(t *Table, keyVals ...sqltypes.Value) (sqltypes.Row, bool, error) {
	if tx.done {
		return nil, false, ErrTxDone
	}
	if t.meta.Heap {
		return nil, false, fmt.Errorf("engine: Get on heap table %s requires a RID key", t.meta.Name)
	}
	key := sqltypes.EncodeKey(nil, keyVals...)
	r, ok := tx.read(t, key)
	return r, ok, nil
}

// GetByKey returns the row under raw clustered-key bytes.
func (tx *Tx) GetByKey(t *Table, key []byte) (sqltypes.Row, bool, error) {
	if tx.done {
		return nil, false, ErrTxDone
	}
	r, ok := tx.read(t, key)
	return r, ok, nil
}

// Insert adds a row, returning its clustered key. For heap tables a fresh
// RID is assigned.
func (tx *Tx) Insert(t *Table, row sqltypes.Row) ([]byte, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if err := t.meta.Schema.Validate(row); err != nil {
		return nil, err
	}
	var key []byte
	if t.meta.Heap {
		key = t.allocRID()
	} else {
		key = t.keyFor(row)
	}
	if err := tx.lock(t, key); err != nil {
		return nil, err
	}
	if !t.meta.Heap {
		if _, exists := tx.read(t, key); exists {
			return nil, fmt.Errorf("%w: table %s key %s", ErrDuplicateKey, t.meta.Name, t.meta.Schema.KeyOf(row))
		}
	}
	tx.writes = append(tx.writes, writeOp{typ: wal.RecInsert, tableID: t.meta.ID, key: key, after: row})
	tx.overlayFor(t.meta.ID).m[string(key)] = overlayEntry{row: row}
	return key, nil
}

// ReserveWrites pre-grows the transaction's write buffer, lock set and
// the table's overlay for n upcoming writes, so a known-size batch
// appends without incremental reallocation.
func (tx *Tx) ReserveWrites(t *Table, n int) {
	if need := len(tx.writes) + n; cap(tx.writes) < need {
		ws := make([]writeOp, len(tx.writes), need)
		copy(ws, tx.writes)
		tx.writes = ws
	}
	if len(tx.locks) == 0 {
		tx.locks = make(map[lockKey]struct{}, n)
	}
	if tx.overlays[t.meta.ID] == nil {
		tx.overlays[t.meta.ID] = &overlay{m: make(map[string]overlayEntry, n)}
	}
}

// InsertPrepared adds a pre-validated row under a pre-computed clustered
// key. It is the batched-ingest half of Insert: callers (the ledger core's
// InsertBatch) validate the row, compute key = t.KeyFor(row) and optionally
// pre-encode the WAL payload (enc; nil lets Commit encode it) on worker
// goroutines, then call InsertPrepared serially to preserve write order.
// Not valid for heap tables.
func (tx *Tx) InsertPrepared(t *Table, key []byte, row sqltypes.Row, enc []byte) error {
	if tx.done {
		return ErrTxDone
	}
	if t.meta.Heap {
		return fmt.Errorf("engine: InsertPrepared on heap table %s", t.meta.Name)
	}
	if err := tx.lock(t, key); err != nil {
		return err
	}
	if _, exists := tx.read(t, key); exists {
		return fmt.Errorf("%w: table %s key %s", ErrDuplicateKey, t.meta.Name, t.meta.Schema.KeyOf(row))
	}
	tx.writes = append(tx.writes, writeOp{typ: wal.RecInsert, tableID: t.meta.ID, key: key, after: row, enc: enc})
	tx.overlayFor(t.meta.ID).m[string(key)] = overlayEntry{row: row}
	return nil
}

// DeleteByKey removes the row under raw clustered-key bytes, returning the
// deleted row.
func (tx *Tx) DeleteByKey(t *Table, key []byte) (sqltypes.Row, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if err := tx.lock(t, key); err != nil {
		return nil, err
	}
	before, ok := tx.read(t, key)
	if !ok {
		return nil, fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	tx.writes = append(tx.writes, writeOp{typ: wal.RecDelete, tableID: t.meta.ID, key: key})
	tx.overlayFor(t.meta.ID).m[string(key)] = overlayEntry{deleted: true}
	return before, nil
}

// Delete removes the row under the given primary-key values.
func (tx *Tx) Delete(t *Table, keyVals ...sqltypes.Value) (sqltypes.Row, error) {
	return tx.DeleteByKey(t, sqltypes.EncodeKey(nil, keyVals...))
}

// UpdateByKey replaces the row under raw clustered-key bytes, returning
// the previous version. The new row must keep the same primary key.
func (tx *Tx) UpdateByKey(t *Table, key []byte, row sqltypes.Row) (sqltypes.Row, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if err := t.meta.Schema.Validate(row); err != nil {
		return nil, err
	}
	if !t.meta.Heap {
		if nk := t.keyFor(row); string(nk) != string(key) {
			return nil, fmt.Errorf("engine: update must not change the primary key of %s (delete+insert instead)", t.meta.Name)
		}
	}
	if err := tx.lock(t, key); err != nil {
		return nil, err
	}
	before, ok := tx.read(t, key)
	if !ok {
		return nil, fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	tx.writes = append(tx.writes, writeOp{typ: wal.RecUpdate, tableID: t.meta.ID, key: key, after: row})
	tx.overlayFor(t.meta.ID).m[string(key)] = overlayEntry{row: row}
	return before, nil
}

// Update replaces the row under the given primary-key values.
func (tx *Tx) Update(t *Table, row sqltypes.Row) (sqltypes.Row, error) {
	if t.meta.Heap {
		return nil, fmt.Errorf("engine: Update on heap table %s requires a RID key", t.meta.Name)
	}
	return tx.UpdateByKey(t, t.keyFor(row), row)
}

// Scan iterates the rows visible to this transaction (committed rows
// merged with the transaction's own writes) in clustered-key order.
func (tx *Tx) Scan(t *Table, fn func(key []byte, row sqltypes.Row) bool) error {
	return tx.ScanRange(t, nil, nil, fn)
}

// ScanRange is Scan bounded to start <= key < end (nil = unbounded).
func (tx *Tx) ScanRange(t *Table, start, end []byte, fn func(key []byte, row sqltypes.Row) bool) error {
	if tx.done {
		return ErrTxDone
	}
	ov := tx.overlays[t.meta.ID]
	if ov == nil || len(ov.m) == 0 {
		t.ScanRange(start, end, fn)
		return nil
	}
	// Merge: collect in-range overlay keys sorted, walk both sequences.
	keys := make([]string, 0, len(ov.m))
	for k := range ov.m {
		if start != nil && k < string(start) {
			continue
		}
		if end != nil && k >= string(end) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	stopped := false
	t.ScanRange(start, end, func(k []byte, row sqltypes.Row) bool {
		ks := string(k)
		for i < len(keys) && keys[i] < ks {
			e := ov.m[keys[i]]
			if !e.deleted {
				if !fn([]byte(keys[i]), e.row) {
					stopped = true
					return false
				}
			}
			i++
		}
		if i < len(keys) && keys[i] == ks {
			e := ov.m[keys[i]]
			i++
			if e.deleted {
				return true
			}
			if !fn(k, e.row) {
				stopped = true
				return false
			}
			return true
		}
		if !fn(k, row) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return nil
	}
	for ; i < len(keys); i++ {
		e := ov.m[keys[i]]
		if !e.deleted {
			if !fn([]byte(keys[i]), e.row) {
				return nil
			}
		}
	}
	return nil
}

// Savepoint records the current write position and ledger sequence
// counter, returning a token for RollbackTo. The ledger core snapshots its
// Merkle trees alongside under the same token.
func (tx *Tx) Savepoint() int {
	tx.savepoints = append(tx.savepoints, savepoint{nwrites: len(tx.writes), seq: tx.seq})
	return len(tx.savepoints) - 1
}

// RollbackTo undoes all writes made after the savepoint token. The token
// stays valid for repeated rollbacks; savepoints created after it are
// discarded. Locks acquired since the savepoint remain held (as in SQL
// Server).
func (tx *Tx) RollbackTo(token int) error {
	if tx.done {
		return ErrTxDone
	}
	if token < 0 || token >= len(tx.savepoints) {
		return fmt.Errorf("engine: invalid savepoint %d", token)
	}
	sp := tx.savepoints[token]
	tx.savepoints = tx.savepoints[:token+1]
	tx.writes = tx.writes[:sp.nwrites]
	tx.seq = sp.seq
	// Rebuild overlays from the surviving writes; the write list is the
	// source of truth.
	tx.overlays = make(map[uint32]*overlay)
	for _, w := range tx.writes {
		ov := tx.overlayFor(w.tableID)
		switch w.typ {
		case wal.RecInsert, wal.RecUpdate:
			ov.m[string(w.key)] = overlayEntry{row: w.after}
		case wal.RecDelete:
			ov.m[string(w.key)] = overlayEntry{deleted: true}
		}
	}
	if tx.OnRollbackTo != nil {
		tx.OnRollbackTo(token)
	}
	return nil
}

// WriteCount returns the number of buffered write operations.
func (tx *Tx) WriteCount() int { return len(tx.writes) }

func (tx *Tx) releaseLocks() {
	for lk := range tx.locks {
		tx.db.locks.release(tx.id, lk.table, lk.key)
	}
	tx.locks = nil
}

// Rollback abandons the transaction, releasing its locks. Rollback after
// Commit is a no-op returning ErrTxDone.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.releaseLocks()
	tx.db.m.rollbacks.Inc()
	// Abort records are informational; buffered writes were never logged.
	tx.writes = nil
	tx.overlays = nil
	return nil
}

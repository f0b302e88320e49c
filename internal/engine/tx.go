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
	// ErrClosed is returned to commits and checkpoints on a closed database.
	ErrClosed = errors.New("engine: database closed")
)

// Tx is a read-committed transaction with row-level write locks.
// Writes are buffered in per-table overlays and applied to shared storage
// atomically at commit; the buffered operations become the transaction's
// WAL records. Savepoints capture positions in the write buffer and can be
// rolled back to (partial rollback, §3.2.1).
//
// Rows live inside the transaction encoded — write buffer, overlay and
// version chains hold sqltypes.EncodeRow bytes — and cross this API in two
// forms. The stored-bytes calls (InsertPrepared, InsertHeap, UpdateStored,
// DeleteStored, GetStored) take and return those bytes and are the one
// implementation of each operation: an after-image handed in becomes the
// stored version and must not be used again, a before-image handed out is
// immutable and may be kept. The ledger core, which writes its hidden
// columns as bytes, calls these. The []Value calls are those plus an encode
// (Insert, Update: the caller's slice is not kept) or a decode (Get and the
// before-images of Update and Delete, into a row the caller owns; scans,
// into one buffer per scan, see Table.Scan). A decoding read builds only
// the columns whose ordinals it is given (GetByKey, ScanColumns; nil is the
// whole row). In a decoded row strings and binaries point into stored bytes
// that never change: copy a Value anywhere, but do not write through
// Value.Bytes.
//
// Every write locks its row until the transaction ends, except the insert
// of a heap row: its key is a row id the table has just allocated, which
// nobody can name before allocRID returns it and no reader sees before
// commit, so there is nothing to lock and no duplicate to look for.
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

// writeOp is one buffered write. after is the encoded after-image (nil
// for a delete) in an allocation of its own: the overlay serves the
// transaction's reads from it, the WAL frame copies it, and commit stores
// it as the new version. heap marks a write to a heap table, whose key
// no image holds.
type writeOp struct {
	typ     wal.RecordType
	heap    bool
	tableID uint32
	key     []byte
	after   []byte
}

// loggedKey is the key the log holds for w: none for an insert or update
// of a keyed table, whose after-image holds it (Table.KeyOfStored).
func (w *writeOp) loggedKey() []byte {
	if !w.heap && w.after != nil {
		return nil
	}
	return w.key
}

// EncodeStoredRow returns the stored form of row — its encoding in an
// allocation of exactly its size, which is what a version chain keeps for
// as long as the version lives — and the form InsertPrepared takes.
func EncodeStoredRow(row sqltypes.Row) []byte {
	return sqltypes.EncodeRow(make([]byte, 0, sqltypes.EncodedRowLen(row)), row)
}

// encodeWrites turns the write set into WAL records, leaving room for the
// COMMIT record that ends the batch. The payloads share one
// arena, garbage once the frame is written.
func (tx *Tx) encodeWrites() []wal.Record {
	recs := make([]wal.Record, 0, len(tx.writes)+1)
	size := 0
	for i := range tx.writes {
		size += wal.DMLImageMaxLen(tx.writes[i].loggedKey(), tx.writes[i].after)
	}
	arena := make([]byte, 0, size)
	for i := range tx.writes {
		w := &tx.writes[i]
		start := len(arena)
		arena = wal.AppendDMLImage(arena, wal.DMLImage{TableID: w.tableID, Key: w.loggedKey(), After: w.after})
		recs = append(recs, wal.Record{Type: w.typ, TxID: tx.id, Payload: arena[start:len(arena):len(arena)]})
	}
	return recs
}

// overlay holds a transaction's own writes to one table: clustered key to
// encoded after-image, nil for a delete.
type overlay struct {
	m map[string][]byte
}

// ID returns the transaction id.
func (tx *Tx) ID() uint64 { return tx.id }

// NextSeq returns the next ledger operation sequence number within the
// transaction, starting at 1.
func (tx *Tx) NextSeq() uint32 {
	tx.seq++
	return tx.seq
}

// SetTrace attaches the transaction's trace (nil is fine). The caller
// that sets it owns Finish; the engine only records spans into it.
func (tx *Tx) SetTrace(tr *obs.Trace) { tx.trace = tr }

func (tx *Tx) overlayFor(tableID uint32) *overlay {
	ov := tx.overlays[tableID]
	if ov == nil {
		ov = &overlay{m: make(map[string][]byte)}
		tx.overlays[tableID] = ov
	}
	return ov
}

func (tx *Tx) lock(t *Table, key []byte) error {
	lk := lockKey{table: t.meta.ID, key: string(key)}
	if _, held := tx.locks[lk]; held {
		return nil
	}
	wait, start, err := tx.db.locks.acquire(tx.id, lk, tx.db.opts.LockTimeout)
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

// stored returns the bytes of the row visible to this transaction under
// key: its own uncommitted write if any, otherwise the committed row.
func (tx *Tx) stored(t *Table, key []byte) ([]byte, bool) {
	if ov := tx.overlays[t.meta.ID]; ov != nil {
		if after, ok := ov.m[string(key)]; ok {
			return after, after != nil
		}
	}
	return t.storedAt(key, latest)
}

// read is stored decoded — the columns ords, nil for all — into a row the
// caller owns.
func (tx *Tx) read(t *Table, key []byte, ords []int) (sqltypes.Row, bool) {
	if ov := tx.overlays[t.meta.ID]; ov != nil {
		if after, ok := ov.m[string(key)]; ok {
			if after == nil {
				return nil, false
			}
			return t.decode(after, ords), true
		}
	}
	return t.getAt(key, latest, ords)
}

// Get returns the row under the given primary-key values. The row is the
// caller's to keep and edit.
func (tx *Tx) Get(t *Table, keyVals ...sqltypes.Value) (sqltypes.Row, bool, error) {
	if t.meta.Heap {
		return nil, false, fmt.Errorf("engine: Get on heap table %s requires a RID key", t.meta.Name)
	}
	var kb [64]byte // most keys fit, and then the lookup key stays off the heap
	return tx.GetByKey(t, sqltypes.EncodeKey(kb[:0], keyVals...), nil)
}

// GetByKey returns the columns ords (nil: the whole row) of the row under
// raw clustered-key bytes, as Get does.
func (tx *Tx) GetByKey(t *Table, key []byte, ords []int) (sqltypes.Row, bool, error) {
	if tx.done {
		return nil, false, ErrTxDone
	}
	r, ok := tx.read(t, key, ords)
	return r, ok, nil
}

// GetStored returns the stored bytes of the row under raw clustered-key
// bytes, undecoded.
func (tx *Tx) GetStored(t *Table, key []byte) ([]byte, bool, error) {
	if tx.done {
		return nil, false, ErrTxDone
	}
	b, ok := tx.stored(t, key)
	return b, ok, nil
}

// Insert adds a row, returning its clustered key. For heap tables a fresh
// RID is assigned.
func (tx *Tx) Insert(t *Table, row sqltypes.Row) ([]byte, error) {
	if err := t.meta.Schema.Validate(row); err != nil {
		return nil, err
	}
	if t.meta.Heap {
		return tx.InsertHeap(t, EncodeStoredRow(row))
	}
	key := t.KeyFor(row)
	return key, tx.InsertPrepared(t, key, EncodeStoredRow(row))
}

// write buffers one operation and shows it to the transaction's reads.
func (tx *Tx) write(typ wal.RecordType, t *Table, key, after []byte) {
	tx.writes = append(tx.writes, writeOp{typ: typ, heap: t.meta.Heap, tableID: t.meta.ID, key: key, after: after})
	tx.overlayFor(t.meta.ID).m[string(key)] = after
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
		tx.overlays[t.meta.ID] = &overlay{m: make(map[string][]byte, n)}
	}
}

// InsertPrepared adds to a keyed table a row the caller has validated and
// encoded (enc = EncodeStoredRow(row)) under the clustered key it has
// computed (key = t.KeyFor(row)). enc becomes the stored version.
func (tx *Tx) InsertPrepared(t *Table, key, enc []byte) error {
	if tx.done {
		return ErrTxDone
	}
	if t.meta.Heap {
		return fmt.Errorf("engine: InsertPrepared on heap table %s", t.meta.Name)
	}
	if err := tx.lock(t, key); err != nil {
		return err
	}
	if _, exists := tx.stored(t, key); exists {
		return fmt.Errorf("%w: table %s key %x", ErrDuplicateKey, t.meta.Name, key)
	}
	tx.write(wal.RecInsert, t, key, enc)
	return nil
}

// InsertHeap adds a validated, encoded row to a heap table under a fresh
// RID, which it returns. It takes no row lock and looks for no duplicate
// (see Tx). enc becomes the stored version.
func (tx *Tx) InsertHeap(t *Table, enc []byte) ([]byte, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if !t.meta.Heap {
		return nil, fmt.Errorf("engine: InsertHeap on keyed table %s", t.meta.Name)
	}
	key := t.allocRID()
	tx.write(wal.RecInsert, t, key, enc)
	return key, nil
}

// replace is update (after is the encoded new version) and delete (after
// is nil): lock the row, find the version this transaction sees, buffer
// the write. It returns the before-image's stored bytes.
func (tx *Tx) replace(typ wal.RecordType, t *Table, key, after []byte) ([]byte, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if err := tx.lock(t, key); err != nil {
		return nil, err
	}
	before, ok := tx.stored(t, key)
	if !ok {
		return nil, fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	tx.write(typ, t, key, after)
	return before, nil
}

// UpdateStored replaces the row under raw clustered-key bytes with the
// validated, encoded row after, which must have that key and becomes the
// stored version. It returns the stored bytes of the version replaced.
func (tx *Tx) UpdateStored(t *Table, key, after []byte) ([]byte, error) {
	return tx.replace(wal.RecUpdate, t, key, after)
}

// DeleteStored removes the row under raw clustered-key bytes, returning
// the stored bytes of the deleted version.
func (tx *Tx) DeleteStored(t *Table, key []byte) ([]byte, error) {
	return tx.replace(wal.RecDelete, t, key, nil)
}

// DeleteByKey removes the row under raw clustered-key bytes, returning the
// deleted row, which is the caller's.
func (tx *Tx) DeleteByKey(t *Table, key []byte) (sqltypes.Row, error) {
	before, err := tx.DeleteStored(t, key)
	if err != nil {
		return nil, err
	}
	return t.decode(before, nil), nil
}

// Delete removes the row under the given primary-key values.
func (tx *Tx) Delete(t *Table, keyVals ...sqltypes.Value) (sqltypes.Row, error) {
	return tx.DeleteByKey(t, sqltypes.EncodeKey(nil, keyVals...))
}

// UpdateByKey replaces the row under raw clustered-key bytes, returning
// the previous version, which is the caller's. The new row must keep the
// same primary key.
func (tx *Tx) UpdateByKey(t *Table, key []byte, row sqltypes.Row) (sqltypes.Row, error) {
	if err := t.meta.Schema.Validate(row); err != nil {
		return nil, err
	}
	if !t.meta.Heap {
		if nk := t.KeyFor(row); string(nk) != string(key) {
			return nil, fmt.Errorf("engine: update must not change the primary key of %s (delete+insert instead)", t.meta.Name)
		}
	}
	before, err := tx.UpdateStored(t, key, EncodeStoredRow(row))
	if err != nil {
		return nil, err
	}
	return t.decode(before, nil), nil
}

// Update replaces the row under the given primary-key values.
func (tx *Tx) Update(t *Table, row sqltypes.Row) (sqltypes.Row, error) {
	if t.meta.Heap {
		return nil, fmt.Errorf("engine: Update on heap table %s requires a RID key", t.meta.Name)
	}
	return tx.UpdateByKey(t, t.KeyFor(row), row)
}

// Scan iterates the rows visible to this transaction (committed rows
// merged with the transaction's own writes) in clustered-key order, under
// Table.Scan's callback contract: key and row are valid only during the
// callback.
func (tx *Tx) Scan(t *Table, fn func(key []byte, row sqltypes.Row) bool) error {
	return tx.ScanColumns(t, nil, nil, nil, fn)
}

// ScanRange is Scan bounded to start <= key < end (nil = unbounded).
func (tx *Tx) ScanRange(t *Table, start, end []byte, fn func(key []byte, row sqltypes.Row) bool) error {
	return tx.ScanColumns(t, nil, start, end, fn)
}

// ScanColumns is ScanRange decoding only the columns ords of every row
// (nil: the whole row): row[i] is column ords[i].
func (tx *Tx) ScanColumns(t *Table, ords []int, start, end []byte, fn func(key []byte, row sqltypes.Row) bool) error {
	if tx.done {
		return ErrTxDone
	}
	ov := tx.overlays[t.meta.ID]
	if ov == nil || len(ov.m) == 0 {
		t.scanAt(start, end, latest, ords, fn)
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
	// own delivers the transaction's write under keys[i], decoded into a
	// buffer of its own: it runs inside t.scanAt, which holds the table's
	// read lock and its own row buffer, and after it.
	var buf sqltypes.Row
	own := func(i int, locked bool) bool {
		after := ov.m[keys[i]]
		if after == nil {
			return true
		}
		if !locked {
			t.mu.RLock()
		}
		buf = t.decodeLocked(buf, after, ords)
		if !locked {
			t.mu.RUnlock()
		}
		return fn([]byte(keys[i]), buf)
	}
	i := 0
	stopped := false
	t.scanAt(start, end, latest, ords, func(k []byte, row sqltypes.Row) bool {
		ks := string(k)
		for ; i < len(keys) && keys[i] < ks; i++ {
			if !own(i, true) {
				stopped = true
				return false
			}
		}
		if i < len(keys) && keys[i] == ks {
			i++
			stopped = !own(i-1, true)
			return !stopped
		}
		stopped = !fn(k, row)
		return !stopped
	})
	for ; !stopped && i < len(keys); i++ {
		stopped = !own(i, false)
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
		tx.overlayFor(w.tableID).m[string(w.key)] = w.after
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
	// Abort records are informational; buffered writes were never logged.
	tx.writes = nil
	tx.overlays = nil
	return nil
}

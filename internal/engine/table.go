package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"sqlledger/internal/btree"
	"sqlledger/internal/sqltypes"
)

// Table is the runtime state of one table: clustered multi-version row
// storage plus any nonclustered indexes. mu guards the trees; DML goes
// through transactions (tx.go) which apply at commit, while system
// operations (ledger queue drain, recovery redo, tamper simulation) use
// the applyDirect path. Each clustered key maps to a versionChain
// (versions.go): committed writes append versions, snapshot readers
// (readtx.go) pick the newest version at or below their snapshot
// timestamp, and everything else sees the newest version. Nonclustered
// indexes track the latest state only — snapshot reads go through the
// clustered tree.
type Table struct {
	meta *TableMeta

	mu       sync.RWMutex
	rows     *btree.Tree[*versionChain]
	indexes  []*Index
	nextRID  uint64 // heap row-id allocator; guarded by mu
	liveRows int    // keys whose newest version is not a tombstone; guarded by mu
}

// Index is the runtime state of a nonclustered index. Entries map the
// encoded index key (index columns followed by the clustered key, making
// every entry unique) to the clustered key of the base row.
type Index struct {
	meta *IndexMeta
	tree *btree.Tree[[]byte]
}

// Meta returns the index metadata.
func (ix *Index) Meta() IndexMeta { return *ix.meta }

func newTable(meta *TableMeta) *Table {
	return &Table{meta: meta, rows: btree.New[*versionChain]()}
}

// Meta returns a copy of the table's catalog entry.
func (t *Table) Meta() TableMeta { return *t.meta }

// ID returns the table id.
func (t *Table) ID() uint32 { return t.meta.ID }

// Name returns the current table name.
func (t *Table) Name() string { return t.meta.Name }

// Schema returns the table schema (shared; callers must not mutate).
func (t *Table) Schema() *sqltypes.Schema { return t.meta.Schema }

// Columns returns a copy of the schema's columns as they are now, taken
// under the table lock that column DDL holds to change them: what a reader
// of stored bytes outside that lock (ScanRangeStored) interprets them by.
func (t *Table) Columns() []sqltypes.Column {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]sqltypes.Column(nil), t.meta.Schema.Columns...)
}

// RowCount returns the number of live rows (newest version not a
// tombstone).
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.liveRows
}

// VersionCount returns the total number of stored row versions, live and
// superseded (GC observability).
func (t *Table) VersionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	t.rows.Ascend(func(_ []byte, c *versionChain) bool {
		n += c.versionCount()
		return true
	})
	return n
}

// KeyFor computes the clustered key bytes Insert would assign to row. Not
// valid for heap tables, whose keys are allocated at insert time
// (allocRID). Batched ingest uses it to encode keys on worker goroutines
// before handing rows to Tx.InsertPrepared.
func (t *Table) KeyFor(r sqltypes.Row) []byte {
	return sqltypes.EncodeRowKey(t.meta.Schema, r)
}

// allocRID returns the next heap row identifier as key bytes.
func (t *Table) allocRID() []byte {
	t.mu.Lock()
	t.nextRID++
	rid := t.nextRID
	t.mu.Unlock()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rid)
	return b[:]
}

// noteRID advances the RID allocator past a key observed during recovery
// or snapshot load. Caller holds mu.
func (t *Table) noteRIDLocked(key []byte) {
	if !t.meta.Heap || len(key) != 8 {
		return
	}
	rid := binary.BigEndian.Uint64(key)
	if rid > t.nextRID {
		t.nextRID = rid
	}
}

// decodeLocked is the read boundary, the engine's one decoder: it turns a
// stored row into values, in dst's storage when that is large enough (a
// scan's buffer) and in a new slice the caller owns otherwise. ords are the
// ordinals to decode, in the order the caller wants them — what a reader
// does not ask for is stepped over, not built — and nil asks for the whole
// row, as wide as the schema is now; either way a column added after the
// row was stored reads NULL. Strings and binaries point into the stored
// bytes. Caller holds mu, which AlterTableMeta takes to change the schema.
func (t *Table) decodeLocked(dst sqltypes.Row, stored []byte, ords []int) sqltypes.Row {
	cols := t.meta.Schema.Columns
	var err error
	if ords == nil {
		dst, err = sqltypes.DecodeRowAlias(dst, stored, cols)
	} else {
		if cap(dst) < len(ords) {
			dst = make(sqltypes.Row, len(ords))
		}
		dst = dst[:len(ords)]
		err = sqltypes.DecodeColumns(dst, stored, ords, cols)
	}
	if err != nil {
		// Bytes enter a chain from EncodeRow or past sqltypes.CheckRow.
		panic(fmt.Sprintf("engine: stored row of %s does not decode: %v", t.meta.Name, err))
	}
	return dst
}

// decode is decodeLocked for a caller that does not hold mu.
func (t *Table) decode(stored []byte, ords []int) sqltypes.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.decodeLocked(nil, stored, ords)
}

// latest is the timestamp at which a read sees the newest committed
// version of every row.
const latest = math.MaxInt64

// storedAt returns the stored bytes of the row under key visible to a
// snapshot pinned at ts, undecoded. They never change and may be kept.
func (t *Table) storedAt(key []byte, ts int64) ([]byte, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.rows.Get(key)
	if !ok {
		return nil, false
	}
	return c.at(ts)
}

// getAt returns the columns ords (nil: all) of the row under key visible
// to a snapshot pinned at ts, decoded into a row the caller owns.
func (t *Table) getAt(key []byte, ts int64, ords []int) (sqltypes.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.rows.Get(key)
	if !ok {
		return nil, false
	}
	stored, ok := c.at(ts)
	if !ok {
		return nil, false
	}
	return t.decodeLocked(nil, stored, ords), true
}

// Lookup returns the committed row stored under key, outside any
// transaction (read-committed point read). The row is the caller's.
func (t *Table) Lookup(key []byte) (sqltypes.Row, bool) {
	return t.getAt(key, latest, nil)
}

// applyInsert installs an encoded row version under key, maintaining
// indexes. row is stored as it is: the caller must not use it again.
// Caller must hold mu. Returns an error if the key holds a live row.
func (t *Table) applyInsertLocked(key, row []byte, ts int64) error {
	if c, exists := t.rows.Get(key); exists {
		if _, live := c.latestLive(); live {
			return fmt.Errorf("%w: table %s", ErrDuplicateKey, t.meta.Name)
		}
		c.appendVersion(ts, row) // re-insert over a tombstone
	} else {
		t.rows.Put(key, newChain(ts, row))
	}
	t.liveRows++
	t.noteRIDLocked(key)
	for _, ix := range t.indexes {
		ix.tree.Put(t.entryKeyLocked(ix, key, row), key)
	}
	return nil
}

// applyDeleteLocked appends a tombstone version under key. Caller must
// hold mu.
func (t *Table) applyDeleteLocked(key []byte, ts int64) error {
	c, ok := t.rows.Get(key)
	if !ok {
		return fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	old, live := c.latestLive()
	if !live {
		return fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	c.appendVersion(ts, nil)
	t.liveRows--
	for _, ix := range t.indexes {
		ix.tree.Delete(t.entryKeyLocked(ix, key, old))
	}
	return nil
}

// applyUpdateLocked appends an encoded replacement version under key,
// stored as it is. Caller must hold mu.
func (t *Table) applyUpdateLocked(key, row []byte, ts int64) error {
	c, ok := t.rows.Get(key)
	if !ok {
		return fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	old, live := c.latestLive()
	if !live {
		return fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	c.appendVersion(ts, row)
	t.moveIndexEntriesLocked(key, old, row)
	return nil
}

// moveIndexEntriesLocked repoints every index entry of key whose indexed
// columns differ between the stored rows old and next. Caller holds mu.
func (t *Table) moveIndexEntriesLocked(key, old, next []byte) {
	for _, ix := range t.indexes {
		oldEnt := t.entryKeyLocked(ix, key, old)
		newEnt := t.entryKeyLocked(ix, key, next)
		if string(oldEnt) != string(newEnt) {
			ix.tree.Delete(oldEnt)
			ix.tree.Put(newEnt, key)
		}
	}
}

// gcVersions prunes versions no snapshot at or after horizon can read and
// removes chains reduced to a dead tombstone. Returns the number of
// versions reclaimed.
func (t *Table) gcVersions(horizon int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	reclaimed := 0
	var dead [][]byte
	t.rows.Ascend(func(k []byte, c *versionChain) bool {
		dropped, rm := c.prune(horizon)
		reclaimed += dropped
		if rm {
			dead = append(dead, append([]byte(nil), k...))
		}
		return true
	})
	for _, k := range dead {
		t.rows.Delete(k)
		reclaimed++ // the tombstone itself
	}
	return reclaimed
}

// EntryKeyStored recomputes the entry key an index should hold for a
// stored base-table row: the indexed column values — the only ones it
// decodes, NULL where the row predates a column of cols, the table's
// columns — followed by the clustered key for uniqueness, appended to dst.
// Verification uses it to check index/base equivalence (invariant 5).
func (ix *Index) EntryKeyStored(dst, clusteredKey, stored []byte, cols []sqltypes.Column) ([]byte, error) {
	var few [4]sqltypes.Value
	vals := few[:0]
	if n := len(ix.meta.Cols); n <= len(few) {
		vals = few[:n]
	} else {
		vals = make([]sqltypes.Value, n)
	}
	if err := sqltypes.DecodeColumns(vals, stored, ix.meta.Cols, cols); err != nil {
		return nil, err
	}
	return append(sqltypes.EncodeKey(dst, vals...), clusteredKey...), nil
}

// entryKeyLocked is EntryKeyStored of a row the engine stored itself.
// Caller holds mu.
func (t *Table) entryKeyLocked(ix *Index, clusteredKey, stored []byte) []byte {
	key, err := ix.EntryKeyStored(make([]byte, 0, 64), clusteredKey, stored, t.meta.Schema.Columns)
	if err != nil {
		panic(fmt.Sprintf("engine: stored row of %s does not decode: %v", t.meta.Name, err))
	}
	return key
}

// Scan iterates the latest committed rows in clustered-key order while
// holding the table read lock. fn returning false stops the scan. Every
// row is decoded into one buffer the scan reuses: key and row are valid
// only during the callback — Clone a row to keep it (its values may be
// copied out freely; what they point to never changes).
func (t *Table) Scan(fn func(key []byte, row sqltypes.Row) bool) {
	t.scanAt(nil, nil, latest, nil, fn)
}

// ScanRange iterates the latest committed rows with start <= key < end,
// under Scan's callback contract.
func (t *Table) ScanRange(start, end []byte, fn func(key []byte, row sqltypes.Row) bool) {
	t.scanAt(start, end, latest, nil, fn)
}

// scanAt iterates the rows visible to a snapshot pinned at ts with start <=
// key < end, decoding the columns ords (nil: all) of each, under Scan's
// callback contract.
func (t *Table) scanAt(start, end []byte, ts int64, ords []int, fn func(key []byte, row sqltypes.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var buf sqltypes.Row
	t.rows.AscendRange(start, end, func(k []byte, c *versionChain) bool {
		stored, ok := c.at(ts)
		if !ok {
			return true
		}
		buf = t.decodeLocked(buf, stored, ords)
		return fn(k, buf)
	})
}

// storedScanBatch is how many keys a stored-bytes scan visits per hold of
// the table's read lock.
const storedScanBatch = 1024

// ScanRangeStored iterates the latest committed rows with start <= key <
// end as their stored sqltypes.EncodeRow bytes, undecoded. Unlike
// ScanRange it holds the read lock only to collect a batch of rows — each
// batch sees what is committed when it is collected — and calls fn with
// the lock released, so fn may be slow (verification hashes in it) without
// stalling commits on the table. key and stored are immutable and may be
// kept. Returns the number of rows passed to fn.
func (t *Table) ScanRangeStored(start, end []byte, fn func(key, stored []byte) bool) int {
	return t.scanStoredAt(start, end, latest, fn)
}

// scanStoredAt is ScanRangeStored over the rows visible to a snapshot
// pinned at ts. Each batch resumes after the last key the one before
// visited: what a snapshot sees under a key never changes, so the batches
// add up to one scan at ts however the table moves between them.
func (t *Table) scanStoredAt(start, end []byte, ts int64, fn func(key, stored []byte) bool) int {
	type entry struct{ key, stored []byte }
	batch := make([]entry, 0, storedScanBatch)
	n := 0
	for {
		batch = batch[:0]
		visited, last := 0, []byte(nil)
		t.mu.RLock()
		t.rows.AscendRange(start, end, func(k []byte, c *versionChain) bool {
			if stored, ok := c.at(ts); ok {
				batch = append(batch, entry{k, stored})
			}
			visited, last = visited+1, k
			return visited < storedScanBatch
		})
		t.mu.RUnlock()
		for _, e := range batch {
			n++
			if !fn(e.key, e.stored) {
				return n
			}
		}
		if visited < storedScanBatch {
			return n
		}
		start = append(append(make([]byte, 0, len(last)+1), last...), 0) // the smallest key above last
	}
}

// KeyRange is a half-open range [Start, End) of encoded keys. A nil Start
// begins at the smallest key; a nil End runs to the largest.
type KeyRange struct {
	Start, End []byte
}

// ScanShards partitions the clustered key space into up to n contiguous,
// non-overlapping ranges that together cover every row, sized by the
// B+tree's separator keys so parallel verification scans stay balanced.
// It always returns at least one range; small tables may yield fewer than
// n. Feed each range to ScanRange.
func (t *Table) ScanShards(n int) []KeyRange {
	t.mu.RLock()
	bounds := t.rows.ShardBoundaries(n)
	t.mu.RUnlock()
	return rangesFrom(bounds)
}

// ScanIndexShards partitions an index's entry-key space the way ScanShards
// partitions the clustered keys. Feed each range to ScanIndexRange.
func (t *Table) ScanIndexShards(ix *Index, n int) []KeyRange {
	t.mu.RLock()
	bounds := ix.tree.ShardBoundaries(n)
	t.mu.RUnlock()
	return rangesFrom(bounds)
}

// rangesFrom turns sorted shard boundaries into covering key ranges.
func rangesFrom(bounds [][]byte) []KeyRange {
	ranges := make([]KeyRange, 0, len(bounds)+1)
	var start []byte
	for _, b := range bounds {
		ranges = append(ranges, KeyRange{Start: start, End: b})
		start = b
	}
	return append(ranges, KeyRange{Start: start})
}

// Indexes returns the table's nonclustered indexes.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Index(nil), t.indexes...)
}

// ScanIndex iterates an index in index-key order, passing the base-table
// clustered key of each entry.
func (t *Table) ScanIndex(ix *Index, fn func(entryKey, clusteredKey []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix.tree.Ascend(fn)
}

// ScanIndexRange iterates index entries with start <= entryKey < end, in
// index-key order, passing the base-table clustered key of each entry.
func (t *Table) ScanIndexRange(ix *Index, start, end []byte, fn func(entryKey, clusteredKey []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix.tree.AscendRange(start, end, fn)
}

// LookupIndexPrefix iterates base-table rows whose indexed columns equal
// the given values (an index point lookup), under Scan's callback
// contract.
func (t *Table) LookupIndexPrefix(ix *Index, vals []sqltypes.Value, fn func(key []byte, row sqltypes.Row) bool) {
	prefix := sqltypes.EncodeKey(nil, vals...)
	end := prefixEnd(prefix)
	t.mu.RLock()
	defer t.mu.RUnlock()
	var buf sqltypes.Row
	ix.tree.AscendRange(prefix, end, func(_ []byte, ck []byte) bool {
		c, ok := t.rows.Get(ck)
		if !ok {
			return true // index/base divergence is surfaced by verification
		}
		stored, live := c.latestLive()
		if !live {
			return true
		}
		buf = t.decodeLocked(buf, stored, nil)
		return fn(ck, buf)
	})
}

// PrefixRange returns the clustered-key range [start, end) covering every
// key whose leading components equal vals (end nil = to the maximum key).
func PrefixRange(vals ...sqltypes.Value) (start, end []byte) {
	start = sqltypes.EncodeKey(nil, vals...)
	return start, prefixEnd(start)
}

// prefixEnd returns the smallest key greater than every key with the given
// prefix, or nil if none exists.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// buildIndexLocked (re)builds an index from the latest live rows of the
// base table. Caller holds mu.
func (t *Table) buildIndexLocked(ix *Index) {
	ix.tree = btree.New[[]byte]()
	t.rows.Ascend(func(k []byte, c *versionChain) bool {
		if stored, live := c.latestLive(); live {
			ix.tree.Put(t.entryKeyLocked(ix, k, stored), k)
		}
		return true
	})
}

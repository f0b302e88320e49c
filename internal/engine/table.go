package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"sqlledger/internal/btree"
	"sqlledger/internal/sqltypes"
)

// Table is the runtime state of one table: clustered multi-version row
// storage (rowstore.go) plus any nonclustered indexes. mu guards both; DML goes
// through transactions (tx.go) which apply at commit, while system
// operations (ledger queue drain, recovery redo, tamper simulation) use
// the applyDirect path. Each clustered key maps to a versionChain
// (versions.go): committed writes append versions, snapshot readers
// (readtx.go) pick the newest version at or below their snapshot
// timestamp, and everything else sees the newest version. Nonclustered
// indexes track the latest state only — snapshot reads go through the
// clustered store.
type Table struct {
	meta *TableMeta

	mu       sync.RWMutex
	rows     rowStore
	indexes  []*Index
	nextRID  uint64 // heap row-id allocator; guarded by mu
	liveRows int    // keys whose newest version is not a tombstone; guarded by mu
	// reclaim lists the chains holding a superseded version, each with the
	// key it was under when it joined, whose bytes a keyed row keeps in
	// reclaimKeys: all gcVersions visits, so an insert-only table costs a
	// sweep nothing. Guarded by mu.
	reclaim     []gcEntry
	reclaimKeys []byte
	// keyOrds are the ordinals of the clustered key's columns as the table
	// was created. The catalog refuses to change a table's key
	// (replaceMeta), so KeyOfStored reads them without the lock.
	keyOrds []int
}

// gcEntry is a listed chain: a keyed row's, its key at reclaimKeys[off:
// off+n], or a heap row's, which has no chain (nil) and no key bytes, by
// its row id.
type gcEntry struct {
	chain  *versionChain
	rid    uint64
	off, n uint32
}

// Index is the runtime state of a nonclustered index. An entry is its key
// alone: the encoded index columns followed by the clustered key of the
// base row, which makes every entry unique and is read back off its end.
type Index struct {
	meta *IndexMeta
	// keyTypes are the indexed columns' types when the index was built,
	// which tell where an entry's clustered key starts.
	keyTypes []sqltypes.TypeID
	tree     *btree.Tree[struct{}]
}

// Meta returns the index metadata.
func (ix *Index) Meta() IndexMeta { return *ix.meta }

func newTable(meta *TableMeta) *Table {
	t := &Table{meta: meta}
	if !meta.Heap {
		t.rows.tree = btree.New[*versionChain]()
		t.keyOrds = slices.Clone(meta.Schema.Key)
	}
	return t
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
		// Bytes enter a chain from EncodeRow or past sqltypes.CheckRow, which
		// every row decodes after, except through TamperSetStoredRow:
		// readers that must not panic on tampered storage read the stored
		// bytes (verification, truncation's scans).
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
	r, ok := t.rows.Get(key)
	if !ok {
		return nil, false
	}
	return r.at(ts)
}

// getAt returns the columns ords (nil: all) of the row under key visible
// to a snapshot pinned at ts, decoded into a row the caller owns.
func (t *Table) getAt(key []byte, ts int64, ords []int) (sqltypes.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.rows.Get(key)
	if !ok {
		return nil, false
	}
	stored, ok := r.at(ts)
	if !ok {
		return nil, false
	}
	return t.decodeLocked(nil, stored, ords), true
}

// LookupStored returns the stored bytes of the committed row under key,
// undecoded: what a reader that must not panic on bytes that are no row
// decodes itself. They never change and may be kept.
func (t *Table) LookupStored(key []byte) ([]byte, bool) {
	return t.storedAt(key, latest)
}

// Has reports whether key holds a committed row, decoding nothing.
func (t *Table) Has(key []byte) bool {
	_, ok := t.storedAt(key, latest)
	return ok
}

// applyInsert installs an encoded row version under key, maintaining
// indexes. row is stored as it is: the caller must not use it again.
// Caller must hold mu. Returns an error if the key holds a live row.
func (t *Table) applyInsertLocked(key, row []byte, ts int64) error {
	if r, exists := t.rows.GetOrPut(key, newChain(ts, row)); exists {
		if _, live := r.latestLive(); live {
			return fmt.Errorf("%w: table %s", ErrDuplicateKey, t.meta.Name)
		}
		t.appendVersionLocked(key, r, ts, row) // re-insert over a tombstone
	}
	t.liveRows++
	t.noteRIDLocked(key)
	var buf [64]byte
	for _, ix := range t.indexes {
		if ent, ok := t.entryKeyLocked(buf[:0], ix, key, row); ok {
			ix.tree.Put(ent, struct{}{})
		}
	}
	return nil
}

// applyDeleteLocked appends a tombstone version under key. Caller must
// hold mu.
func (t *Table) applyDeleteLocked(key []byte, ts int64) error {
	r, ok := t.rows.Get(key)
	if !ok {
		return fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	old, live := r.latestLive()
	if !live {
		return fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	t.appendVersionLocked(key, r, ts, nil)
	t.liveRows--
	var buf [64]byte
	for _, ix := range t.indexes {
		if ent, ok := t.entryKeyLocked(buf[:0], ix, key, old); ok {
			ix.tree.Delete(ent)
		}
	}
	return nil
}

// applyUpdateLocked appends an encoded replacement version under key,
// stored as it is. Caller must hold mu.
func (t *Table) applyUpdateLocked(key, row []byte, ts int64) error {
	r, ok := t.rows.Get(key)
	if !ok {
		return fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	old, live := r.latestLive()
	if !live {
		return fmt.Errorf("%w: table %s", ErrNotFound, t.meta.Name)
	}
	t.appendVersionLocked(key, r, ts, row)
	t.moveIndexEntriesLocked(key, old, row)
	return nil
}

// moveIndexEntriesLocked repoints every index entry of key whose indexed
// columns differ between the stored rows old and next; only a moved entry
// is written, its new key copied into the index. Caller holds mu.
func (t *Table) moveIndexEntriesLocked(key, old, next []byte) {
	var oldBuf, newBuf [64]byte
	for _, ix := range t.indexes {
		oldEnt, hadOld := t.entryKeyLocked(oldBuf[:0], ix, key, old)
		newEnt, hasNew := t.entryKeyLocked(newBuf[:0], ix, key, next)
		if hadOld == hasNew && string(oldEnt) == string(newEnt) {
			continue
		}
		if hadOld {
			ix.tree.Delete(oldEnt)
		}
		if hasNew {
			ix.tree.Put(newEnt, struct{}{})
		}
	}
}

// appendVersionLocked adds a version to r, the row under key, and lists
// it for GC when that gives it its first superseded version: a keyed row
// with a copy of key, a heap row by its row id. Caller holds mu.
func (t *Table) appendVersionLocked(key []byte, r rowRef, ts int64, row []byte) {
	first := false
	r.edit(true, func(c versionChain) versionChain { first = c.appendVersion(ts, row); return c })
	if first {
		e := gcEntry{chain: r.c, rid: r.rid, off: uint32(len(t.reclaimKeys))}
		if r.c != nil {
			e.n, t.reclaimKeys = uint32(len(key)), append(t.reclaimKeys, key...)
		}
		t.reclaim = append(t.reclaim, e)
	}
}

// gcVersions prunes the listed chains of versions no snapshot at or after
// horizon can read, removes those reduced to a dead tombstone, and keeps
// listed the ones that still hold a superseded version, their keys moved
// into fresh key bytes. Returns the number of versions reclaimed.
func (t *Table) gcVersions(horizon int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	reclaimed := 0
	kept, keys := t.reclaim[:0], []byte(nil)
	var rid [8]byte
	for _, e := range t.reclaim {
		key := t.reclaimKeys[e.off : e.off+e.n]
		r := rowRef{c: e.chain}
		if e.chain == nil { // a heap row, reached by its row id
			key = binary.BigEndian.AppendUint64(rid[:0], e.rid)
			var ok bool
			if r, ok = t.rows.Get(key); !ok {
				continue
			}
		}
		var dropped int
		var dead bool
		r.edit(false, func(c versionChain) versionChain { dropped, dead = c.prune(horizon); return c })
		reclaimed += dropped
		switch {
		case dead:
			// TamperDeleteRow may have taken the chain out of the tree, and
			// an insert put a new one under its key since.
			if got, ok := t.rows.Get(key); ok && got == r {
				t.rows.Delete(key)
				reclaimed++ // the tombstone itself
			}
		case r.hasOlder():
			e.off, keys = uint32(len(keys)), append(keys, key[:e.n]...)
			kept = append(kept, e)
		}
	}
	// Fresh copies, so a burst of writes does not pin the list's peak size.
	t.reclaim, t.reclaimKeys = nil, keys
	if len(kept) > 0 {
		t.reclaim = append(make([]gcEntry, 0, len(kept)), kept...)
	}
	return reclaimed
}

// ErrMistypedEntry is EntryKeyStored's answer for a row with an indexed
// value whose type is not its column's declared type: an index holds no
// entry for such a row, which only tampering stores (invariant 4 names it).
var ErrMistypedEntry = errors.New("engine: indexed value is not of its column's type")

// EntryKeyStored recomputes the entry key an index should hold for a
// stored base-table row: the indexed column values — the only ones it
// decodes, NULL where the row predates a column of cols, the table's
// columns — followed by the clustered key for uniqueness, appended to dst.
// A row whose indexed values do not carry cols' types has none
// (ErrMistypedEntry), so an entry always splits by its columns' types.
// Install, apply and verification's check of index/base equivalence
// (invariant 5) all build entries here.
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
	for i, ord := range ix.meta.Cols {
		if !vals[i].Null && vals[i].Type != cols[ord].Type {
			return nil, ErrMistypedEntry
		}
	}
	return append(sqltypes.EncodeKey(dst, vals...), clusteredKey...), nil
}

// KeyOfStored appends to dst the clustered key of stored, a row of this
// keyed table: the encoding of its key columns, which is what KeyFor gives
// for the decoded row, read straight from the bytes. The log and snapshots
// hold no key for a keyed row's image, and every reader of one derives it
// here. A row that lacks a key column or holds NULL in one has no key, and
// bytes that do not decode up to the last key column are an error too.
func (t *Table) KeyOfStored(dst, stored []byte) ([]byte, error) {
	return sqltypes.AppendStoredKey(dst, stored, t.keyOrds)
}

// clusteredKey returns the clustered key entryKey ends with: what follows
// the encoding of the indexed columns. An entry that does not start with
// one (a hand-edited index) yields nil, which names no row.
func (ix *Index) clusteredKey(entryKey []byte) []byte {
	n, err := sqltypes.KeyPrefixLen(entryKey, ix.keyTypes)
	if err != nil {
		return nil
	}
	return entryKey[n:]
}

// entryKeyLocked is EntryKeyStored of a row the engine stored itself, and
// false for a row the index holds no entry for. It is built in a stack
// buffer (dst), which an index's Put copies into a leaf's arena. Caller
// holds mu.
func (t *Table) entryKeyLocked(dst []byte, ix *Index, clusteredKey, stored []byte) ([]byte, bool) {
	key, err := ix.EntryKeyStored(dst, clusteredKey, stored, t.meta.Schema.Columns)
	if err != nil && !errors.Is(err, ErrMistypedEntry) {
		// As in decodeLocked, only bytes TamperSetStoredRow wrote fail here.
		panic(fmt.Sprintf("engine: stored row of %s does not decode: %v", t.meta.Name, err))
	}
	return key, err == nil
}

// Scan iterates the latest committed rows in clustered-key order while
// holding the table read lock. fn returning false stops the scan. Every
// row is decoded into one buffer the scan reuses: key and row are valid
// only during the callback — Clone a row to keep it (its values may be
// copied out freely; what they point to never changes).
func (t *Table) Scan(fn func(key []byte, row sqltypes.Row) bool) {
	t.scanAt(nil, nil, latest, nil, fn)
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
// kept: a batch copies its keys into a buffer of its own. Returns the
// number of rows passed to fn.
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
	n, size := 0, 0 // size: the key bytes of the batch before
	for {
		batch = batch[:0]
		keys, visited := make([]byte, 0, size), 0
		t.mu.RLock()
		t.rows.AscendRange(start, end, func(k []byte, c *versionChain) bool {
			if stored, ok := c.at(ts); ok {
				keys = append(keys, k...)
				batch = append(batch, entry{keys[len(keys)-len(k) : len(keys) : len(keys)], stored})
			}
			if visited++; visited == storedScanBatch {
				start = append(append(make([]byte, 0, len(k)+1), k...), 0) // the smallest key above k
				return false
			}
			return true
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
		size = len(keys)
	}
}

// KeyRange is a half-open range [Start, End) of encoded keys. A nil Start
// begins at the smallest key; a nil End runs to the largest.
type KeyRange struct {
	Start, End []byte
}

// ScanShards partitions the clustered key space into up to n contiguous,
// non-overlapping ranges that together cover every row, sized by the
// B+tree's separator keys, or a heap's row ids, so parallel verification
// scans stay balanced.
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
	t.ScanIndexRange(ix, nil, nil, fn)
}

// ScanIndexRange iterates index entries with start <= entryKey < end, in
// index-key order, passing the base-table clustered key of each entry.
// entryKey and clusteredKey are valid only during the callback.
func (t *Table) ScanIndexRange(ix *Index, start, end []byte, fn func(entryKey, clusteredKey []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix.tree.AscendRange(start, end, func(ek []byte, _ struct{}) bool {
		return fn(ek, ix.clusteredKey(ek))
	})
}

// LastIndexEntry returns a copy of the largest entry key of an index.
func (t *Table) LastIndexEntry(ix *Index) ([]byte, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return ix.tree.Max()
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
	ix.tree.AscendRange(prefix, end, func(ek []byte, _ struct{}) bool {
		ck := ix.clusteredKey(ek)
		r, ok := t.rows.Get(ck)
		if !ok {
			return true // index/base divergence is surfaced by verification
		}
		stored, live := r.latestLive()
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
	ix.keyTypes = make([]sqltypes.TypeID, len(ix.meta.Cols))
	for i, ord := range ix.meta.Cols {
		ix.keyTypes[i] = t.meta.Schema.Columns[ord].Type
	}
	ix.tree = btree.New[struct{}]()
	var buf [64]byte
	t.rows.Ascend(func(k []byte, c *versionChain) bool {
		if stored, live := c.latestLive(); live {
			if ent, ok := t.entryKeyLocked(buf[:0], ix, k, stored); ok {
				ix.tree.Put(ent, struct{}{})
			}
		}
		return true
	})
}

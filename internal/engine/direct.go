package engine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"sqlledger/internal/sqltypes"
)

// Direct storage access. Two very different callers use this path:
//
//   - The ledger core's checkpoint-time queue drain (§3.3.2): runs under
//     full quiescence, bypasses the WAL because the snapshot written
//     immediately afterwards persists the effect, and recovery from any
//     older snapshot reconstructs the same entries from COMMIT records.
//
//   - Tamper simulation for tests, examples and the verification
//     benchmarks: models the paper's threat model (§2.5.2) where an
//     attacker edits database files in storage, bypassing all engine
//     checks and leaving no log trace. Tampering therefore edits the
//     stored version bytes in place rather than appending MVCC versions —
//     an attacker rewriting data pages does not create history.

// DirectInsert installs a row bypassing transactions and the WAL. For heap
// tables a RID is assigned. Returns the clustered key.
func (db *DB) DirectInsert(t *Table, row sqltypes.Row) ([]byte, error) {
	if err := t.meta.Schema.Validate(row); err != nil {
		return nil, err
	}
	var key []byte
	if t.meta.Heap {
		key = t.allocRID()
	} else {
		key = t.KeyFor(row)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.applyInsertLocked(key, EncodeStoredRow(row), db.LastCommitTS()); err != nil {
		return nil, err
	}
	db.m.versionsLive.Add(1)
	return key, nil
}

// TamperUpdateRow overwrites the stored bytes of a row in place, bypassing
// every engine and ledger check — the storage-level attack of §2.5.2.
// When updateIndexes is false, nonclustered indexes keep their old entries
// (an attacker editing data pages typically would not fix up indexes),
// which verification invariant 5 detects. A row whose stored bytes are no
// row is an error: there is nothing to hand mutate.
func (db *DB) TamperUpdateRow(t *Table, key []byte, mutate func(sqltypes.Row) sqltypes.Row, updateIndexes bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rows.Get(key)
	if !ok {
		return fmt.Errorf("%w: tamper target", ErrNotFound)
	}
	old, live := r.latestLive()
	if !live {
		return fmt.Errorf("%w: tamper target", ErrNotFound)
	}
	values, err := sqltypes.DecodeRowAlias(nil, old, t.meta.Schema.Columns)
	if err != nil {
		return fmt.Errorf("engine: stored row of %s does not decode: %w", t.meta.Name, err)
	}
	// mutate gets a deep copy: an edit through Value.Bytes must not reach
	// the bytes the old entry keys are computed from.
	next := EncodeStoredRow(mutate(values.Clone()))
	r.setLatestRow(next)
	if updateIndexes {
		t.moveIndexEntriesLocked(key, old, next)
	}
	return nil
}

// TamperSetStoredRow overwrites the stored bytes of a row with raw, which
// need not be a row at all — an attacker writes what they like — and
// leaves the indexes alone. Every decoding read of the row panics from
// then on; verification reports it.
func (db *DB) TamperSetStoredRow(t *Table, key, raw []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rows.Get(key)
	if ok {
		_, ok = r.latestLive()
	}
	if !ok {
		return fmt.Errorf("%w: tamper target", ErrNotFound)
	}
	r.setLatestRow(raw)
	return nil
}

// TamperDeleteRow removes a row — the whole version chain, as an attacker
// dropping a page would — bypassing all checks.
func (db *DB) TamperDeleteRow(t *Table, key []byte, updateIndexes bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rows.Get(key)
	if !ok {
		return fmt.Errorf("%w: tamper target", ErrNotFound)
	}
	old, live := r.latestLive()
	// The whole chain is gone; keep the gauge honest even for tampering.
	// GC may still visit the chain through its table's list, and must find
	// no version there to count again: Delete drops the older versions.
	db.m.versionsLive.Add(-float64(r.versionCount()))
	t.rows.Delete(key)
	if live {
		t.liveRows--
		if updateIndexes {
			t.dropIndexEntriesLocked(key, old)
		}
	}
	return nil
}

// TamperPutStoredRow makes stored, the bytes of a row taken from a trusted
// copy such as a verified backup, the newest version under key: in place
// of the live row there, over a tombstone, or as a new chain. key's index
// entries follow, whether or not the bytes they replace decode. Bytes that
// are no row of t change nothing when t has an index.
func (db *DB) TamperPutStoredRow(t *Table, key, stored []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.rows.fits(key) {
		return fmt.Errorf("engine: key %x is no row id of heap table %s", key, t.meta.Name)
	}
	entries := make([][]byte, len(t.indexes)) // nil: no entry
	for i, ix := range t.indexes {
		ent, err := ix.EntryKeyStored(nil, key, stored, t.meta.Schema.Columns)
		if err != nil && !errors.Is(err, ErrMistypedEntry) {
			return fmt.Errorf("engine: stored row for %s does not decode: %w", t.meta.Name, err)
		}
		entries[i] = ent
	}
	if stored == nil {
		stored = []byte{} // no bytes are an empty row, not a tombstone
	}
	if r, exists := t.rows.GetOrPut(key, newChain(0, stored)); !exists {
		db.m.versionsLive.Add(1)
		t.liveRows++
	} else {
		if old, live := r.latestLive(); live {
			t.dropIndexEntriesLocked(key, old)
		} else {
			t.liveRows++ // the tombstone version is rewritten in place
		}
		r.setLatestRow(stored)
	}
	t.noteRIDLocked(key)
	for i, ix := range t.indexes {
		if entries[i] != nil {
			ix.tree.Put(entries[i], struct{}{})
		}
	}
	return nil
}

// dropIndexEntriesLocked deletes key's entry from every index: the one
// its stored row old yields, or, where old is no row, every entry that
// ends in key. Caller holds mu.
func (t *Table) dropIndexEntriesLocked(key, old []byte) {
	for _, ix := range t.indexes {
		if ent, err := ix.EntryKeyStored(nil, key, old, t.meta.Schema.Columns); err == nil {
			ix.tree.Delete(ent)
			continue
		}
		var stale [][]byte
		ix.tree.Ascend(func(ent []byte, _ struct{}) bool {
			if bytes.Equal(ix.clusteredKey(ent), key) {
				stale = append(stale, bytes.Clone(ent))
			}
			return true
		})
		for _, ent := range stale {
			ix.tree.Delete(ent)
		}
	}
}

// TamperInsertRow injects a row bypassing all checks. The injected version
// carries timestamp 0, so every snapshot sees it — edited storage has no
// provenance.
func (db *DB) TamperInsertRow(t *Table, values sqltypes.Row, updateIndexes bool) ([]byte, error) {
	var key []byte
	if t.meta.Heap {
		key = t.allocRID()
	} else {
		key = t.KeyFor(values)
	}
	row := EncodeStoredRow(values)
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.rows.GetOrPut(key, newChain(0, row)); ok {
		if _, live := r.latestLive(); live {
			if updateIndexes {
				return key, fmt.Errorf("%w: table %s", ErrDuplicateKey, t.meta.Name)
			}
			// Overwrite the newest version's stored bytes in place.
			r.setLatestRow(row)
			t.noteRIDLocked(key)
			return key, nil
		}
		// Reinstate over a tombstone. The tombstone version is rewritten
		// in place, so versions_live is unchanged.
		r.setLatestRow(row)
	} else {
		db.m.versionsLive.Add(1)
	}
	t.liveRows++
	t.noteRIDLocked(key)
	if updateIndexes {
		for _, ix := range t.indexes {
			if ent, ok := t.entryKeyLocked(nil, ix, key, row); ok {
				ix.tree.Put(ent, struct{}{})
			}
		}
	}
	return key, nil
}

// TamperColumnType rewrites the declared type of a column in the catalog
// without touching stored values — the metadata attack from §3.2 that the
// serialization format is designed to detect.
func (db *DB) TamperColumnType(t *Table, colName string, newType sqltypes.TypeID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	ord := t.meta.Schema.OrdinalOf(colName)
	if ord < 0 {
		return fmt.Errorf("engine: column %q not found", colName)
	}
	t.meta.Schema.Columns[ord].Type = newType
	return nil
}

// TamperIndexEntry repoints an index entry at newClusteredKey: it replaces
// the entry with one of the same indexed values that ends in that key,
// desynchronizing the index from the base table (detected by invariant 5).
func (db *DB) TamperIndexEntry(t *Table, ix *Index, entryKey, newClusteredKey []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := ix.tree.Delete(entryKey); !ok {
		return fmt.Errorf("%w: index entry", ErrNotFound)
	}
	values := entryKey[:len(entryKey)-len(ix.clusteredKey(entryKey))]
	ix.tree.Put(slices.Concat(values, newClusteredKey), struct{}{})
	return nil
}

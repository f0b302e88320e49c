package engine

import (
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
// which verification invariant 5 detects.
func (db *DB) TamperUpdateRow(t *Table, key []byte, mutate func(sqltypes.Row) sqltypes.Row, updateIndexes bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.rows.Get(key)
	if !ok {
		return fmt.Errorf("%w: tamper target", ErrNotFound)
	}
	old, live := c.latestLive()
	if !live {
		return fmt.Errorf("%w: tamper target", ErrNotFound)
	}
	// mutate gets a deep copy: an edit through Value.Bytes must not reach
	// the bytes the old entry keys are computed from.
	next := EncodeStoredRow(mutate(t.decodeLocked(nil, old, nil).Clone()))
	c.setLatestRow(next)
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
	c, ok := t.rows.Get(key)
	if !ok || c.newest.row == nil {
		return fmt.Errorf("%w: tamper target", ErrNotFound)
	}
	c.setLatestRow(raw)
	return nil
}

// TamperDeleteRow removes a row — the whole version chain, as an attacker
// dropping a page would — bypassing all checks.
func (db *DB) TamperDeleteRow(t *Table, key []byte, updateIndexes bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.rows.Get(key)
	if !ok {
		return fmt.Errorf("%w: tamper target", ErrNotFound)
	}
	old, live := c.latestLive()
	t.rows.Delete(key)
	// The whole chain is gone; keep the gauge honest even for tampering.
	// GC may still visit the chain through its table's list, and must find
	// no version there to count again.
	db.m.versionsLive.Add(-float64(c.versionCount()))
	c.older = nil
	if live {
		t.liveRows--
		if updateIndexes {
			for _, ix := range t.indexes {
				ix.tree.Delete(t.entryKeyLocked(nil, ix, key, old))
			}
		}
	}
	return nil
}

// TamperInsertRow injects a row bypassing all checks. The injected version
// carries timestamp 0, so every snapshot sees it — edited storage has no
// provenance.
func (db *DB) TamperInsertRow(t *Table, row sqltypes.Row, updateIndexes bool) ([]byte, error) {
	var key []byte
	if t.meta.Heap {
		key = t.allocRID()
	} else {
		key = t.KeyFor(row)
	}
	return key, db.TamperInsertRowAt(t, key, row, updateIndexes)
}

// TamperInsertRowAt injects a row under an explicit clustered key (heaps
// included), bypassing all checks. The tamper-repair path (§3.7) uses it
// to reinstate deleted rows under their original keys.
func (db *DB) TamperInsertRowAt(t *Table, key []byte, values sqltypes.Row, updateIndexes bool) error {
	row := EncodeStoredRow(values)
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.rows.GetOrPut(key, newChain(0, row)); ok {
		if _, live := c.latestLive(); live {
			if updateIndexes {
				return fmt.Errorf("%w: table %s", ErrDuplicateKey, t.meta.Name)
			}
			// Overwrite the newest version's stored bytes in place.
			c.setLatestRow(row)
			t.noteRIDLocked(key)
			return nil
		}
		// Reinstate over a tombstone (the tamper-repair path). The
		// tombstone version is rewritten in place, so versions_live is
		// unchanged.
		c.setLatestRow(row)
	} else {
		db.m.versionsLive.Add(1)
	}
	t.liveRows++
	t.noteRIDLocked(key)
	if updateIndexes {
		for _, ix := range t.indexes {
			ix.tree.Put(t.entryKeyLocked(nil, ix, key, row), struct{}{})
		}
	}
	return nil
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

package engine

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// Each kind of catalog change has one function — installTable,
// replaceMeta, attachIndex — that checks the metadata
// (checkTable, checkIndex) and then applies it. A live DDL method calls it
// before logging the change (liveDDL), and redo (redoDDL) calls the same
// function with what the log holds: a replayed change is the change that
// was made, and a record rewritten under a valid checksum is an error, not
// a panic. Caller holds db.mu.

// installTable files m in the catalog and creates its empty table.
func (db *DB) installTable(m *TableMeta) (*Table, error) {
	if err := checkTable(m); err != nil {
		return nil, err
	}
	if db.tables[m.ID] != nil {
		return nil, fmt.Errorf("engine: table id %d already exists", m.ID)
	}
	db.cat.Tables[m.ID] = m
	db.cat.NextTableID = max(db.cat.NextTableID, m.ID+1)
	t := newTable(m)
	db.tables[m.ID] = t
	return t, nil
}

// replaceMeta makes m the catalog entry of table m.ID. The entry is
// replaced, not edited: a reader under the table lock sees the old entry or
// the new one, whole. A table's key never changes: the log and snapshots
// hold a keyed row without its key, which every reader derives from the
// row by the key's ordinals (Table.KeyOfStored).
func (db *DB) replaceMeta(m *TableMeta) error {
	if err := checkTable(m); err != nil {
		return err
	}
	t := db.tables[m.ID]
	if t == nil {
		return fmt.Errorf("engine: table id %d not found", m.ID)
	}
	if !slices.Equal(m.Schema.Key, t.meta.Schema.Key) {
		return fmt.Errorf("engine: the key of table %s cannot change (from columns %v to %v)", t.meta.Name, t.meta.Schema.Key, m.Schema.Key)
	}
	// The table's indexes must still fit the new schema.
	for _, ix := range t.indexes {
		if err := checkIndex(ix.meta, map[uint32]*TableMeta{m.ID: m}); err != nil {
			return err
		}
	}
	db.cat.Tables[m.ID] = m
	t.mu.Lock()
	t.meta = m
	t.mu.Unlock()
	return nil
}

// attachIndex files im in the catalog and hangs its index, built from the
// table's rows, on the table. During recovery a table holds no rows until
// install, which builds its indexes again from its final rows.
func (db *DB) attachIndex(im *IndexMeta) (*Index, error) {
	if err := checkIndex(im, db.cat.Tables); err != nil {
		return nil, err
	}
	if db.cat.Indexes[im.ID] != nil {
		return nil, fmt.Errorf("engine: index id %d already exists", im.ID)
	}
	db.cat.Indexes[im.ID] = im
	db.cat.NextIndexID = max(db.cat.NextIndexID, im.ID+1)
	t := db.tables[im.TableID]
	ix := &Index{meta: im}
	t.mu.Lock()
	t.buildIndexLocked(ix)
	t.indexes = append(t.indexes, ix)
	t.mu.Unlock()
	return ix, nil
}

// redoDDL replays the catalog change a DDL record's body logs.
func (db *DB) redoDDL(body []byte) error {
	var op ddlOp
	if err := json.Unmarshal(body, &op); err != nil {
		return fmt.Errorf("engine: bad ddl record: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	switch op.Kind {
	case "create_table":
		_, err := db.installTable(op.Meta)
		return err
	case "alter_table":
		return db.replaceMeta(op.Meta)
	case "create_index":
		_, err := db.attachIndex(op.Index)
		return err
	}
	return fmt.Errorf("engine: unknown ddl kind %q", op.Kind)
}

// installCatalog replaces the catalog with the one a snapshot's catalog
// record holds, installing each table, empty, and attaching each index
// through the functions of their kinds. A map key must be its entry's id
// and sit below the id allocator.
func (db *DB) installCatalog(body []byte) error {
	c := newCatalog()
	if err := json.Unmarshal(body, c); err != nil {
		return fmt.Errorf("engine: bad catalog: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cat, db.tables = newCatalog(), make(map[uint32]*Table, len(c.Tables))
	db.cat.NextTableID, db.cat.NextIndexID, db.cat.NextTxID = c.NextTableID, c.NextIndexID, c.NextTxID
	for id, m := range c.Tables {
		if _, err := db.installTable(m); err != nil {
			return err
		}
		if m.ID != id || id >= c.NextTableID {
			return fmt.Errorf("engine: catalog: table %d filed under id %d (next id %d)", m.ID, id, c.NextTableID)
		}
	}
	for id, im := range c.Indexes {
		if _, err := db.attachIndex(im); err != nil {
			return err
		}
		if im.ID != id || id >= c.NextIndexID {
			return fmt.Errorf("engine: catalog: index %d filed under id %d (next id %d)", im.ID, id, c.NextIndexID)
		}
	}
	return nil
}

// CreateTableSpec describes a new table.
type CreateTableSpec struct {
	Name   string
	Schema *sqltypes.Schema
	System bool
	Ledger LedgerKind
}

// liveDDL makes one catalog change under the DDL locks: change applies it
// through the function of its kind and returns the record that logs it,
// which is appended once the change has applied.
func (db *DB) liveDDL(change func() (ddlOp, error)) error {
	db.quiesce.RLock()
	defer db.quiesce.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	op, err := change()
	if err != nil {
		return err
	}
	if _, err := db.log.Append(wal.RecDDL, 0, wal.EncodeDDL(wal.DDLPayload{Kind: op.Kind, Body: op.marshal()})); err != nil {
		return fmt.Errorf("engine: log ddl: %w", err)
	}
	return db.log.Flush()
}

// CreateTable creates a table and logs the DDL.
func (db *DB) CreateTable(spec CreateTableSpec) (*Table, error) {
	var t *Table
	err := db.liveDDL(func() (op ddlOp, err error) {
		if db.cat.tableByName(spec.Name) != nil {
			return op, fmt.Errorf("engine: table %q already exists", spec.Name)
		}
		op.Kind, op.Meta = "create_table", &TableMeta{
			ID:     db.cat.NextTableID,
			Name:   spec.Name,
			Schema: spec.Schema.Clone(),
			Heap:   len(spec.Schema.Key) == 0,
			System: spec.System,
			Ledger: spec.Ledger,
		}
		t, err = db.installTable(op.Meta)
		return op, err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AlterTableMeta applies an arbitrary catalog mutation to a copy of a
// table's metadata, installs the copy and logs it. Stored rows are not
// touched: if the schema gained columns, a row stored before reads NULL in
// them (Table.decodeLocked). Used by the ledger core for add/drop column,
// drop table (rename) and history-table linkage.
func (db *DB) AlterTableMeta(tableID uint32, mutate func(*TableMeta) error) error {
	return db.liveDDL(func() (ddlOp, error) {
		t, ok := db.tables[tableID]
		if !ok {
			return ddlOp{}, fmt.Errorf("engine: table id %d not found", tableID)
		}
		m := *t.meta
		m.Schema = t.meta.Schema.Clone()
		err := mutate(&m)
		if err == nil {
			err = db.replaceMeta(&m)
		}
		return ddlOp{Kind: "alter_table", Meta: &m}, err
	})
}

// CreateIndex creates a nonclustered index over the named columns and
// builds it from the current table contents.
func (db *DB) CreateIndex(tableName, indexName string, colNames ...string) (*Index, error) {
	var ix *Index
	err := db.liveDDL(func() (op ddlOp, err error) {
		m := db.cat.tableByName(tableName)
		if m == nil {
			return op, fmt.Errorf("engine: table %q not found", tableName)
		}
		for _, im := range db.cat.Indexes {
			if strings.EqualFold(im.Name, indexName) {
				return op, fmt.Errorf("engine: index %q already exists", indexName)
			}
		}
		cols := make([]int, len(colNames))
		for i, cn := range colNames {
			if cols[i] = m.Schema.OrdinalOf(cn); cols[i] < 0 {
				return op, fmt.Errorf("engine: column %q not found in %s", cn, tableName)
			}
		}
		op.Kind, op.Index = "create_index", &IndexMeta{ID: db.cat.NextIndexID, Name: indexName, TableID: m.ID, Cols: cols}
		ix, err = db.attachIndex(op.Index)
		return op, err
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

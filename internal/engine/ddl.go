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
// replaceMeta, attachIndex, detachIndex — that checks the metadata
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
// the new one, whole.
func (db *DB) replaceMeta(m *TableMeta) error {
	if err := checkTable(m); err != nil {
		return err
	}
	t := db.tables[m.ID]
	if t == nil {
		return fmt.Errorf("engine: table id %d not found", m.ID)
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

// attachIndex files im in the catalog and hangs its index on the table,
// built from the table's rows when build is set. Redo attaches unbuilt
// indexes and builds them once, from the final rows, at install.
func (db *DB) attachIndex(im *IndexMeta, build bool) (*Index, error) {
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
	if build {
		t.buildIndexLocked(ix)
	}
	t.indexes = append(t.indexes, ix)
	t.mu.Unlock()
	return ix, nil
}

// detachIndex removes the index with im's id from the catalog and from its
// table.
func (db *DB) detachIndex(im *IndexMeta) error {
	if im == nil || db.cat.Indexes[im.ID] == nil {
		return fmt.Errorf("engine: drop of an index not in the catalog")
	}
	im = db.cat.Indexes[im.ID]
	delete(db.cat.Indexes, im.ID)
	t := db.tables[im.TableID]
	t.mu.Lock()
	t.indexes = slices.DeleteFunc(t.indexes, func(ix *Index) bool { return ix.meta.ID == im.ID })
	t.mu.Unlock()
	return nil
}

// redoDDL replays the catalog change a DDL record's body logs, adding the
// table of an attached index to rebuild for the install phase. Serial and
// parallel replay both use it, so their results agree by construction.
func (db *DB) redoDDL(body []byte, rebuild map[uint32]struct{}) error {
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
		ix, err := db.attachIndex(op.Index, false)
		if err == nil {
			rebuild[ix.meta.TableID] = struct{}{}
		}
		return err
	case "drop_index":
		return db.detachIndex(op.Index)
	}
	return fmt.Errorf("engine: unknown ddl kind %q", op.Kind)
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
		ix, err = db.attachIndex(op.Index, true)
		return op, err
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// DropIndex removes a nonclustered index. Index drops are physical schema
// changes and do not affect ledger hashes (§3.5).
func (db *DB) DropIndex(indexName string) error {
	return db.liveDDL(func() (ddlOp, error) {
		for _, im := range db.cat.Indexes {
			if strings.EqualFold(im.Name, indexName) {
				return ddlOp{Kind: "drop_index", Index: im}, db.detachIndex(im)
			}
		}
		return ddlOp{}, fmt.Errorf("engine: index %q not found", indexName)
	})
}

// Package engine implements the embedded relational engine that plays the
// role of SQL Server in this reproduction: typed tables with clustered
// B+tree (or heap) storage and nonclustered indexes, transactions with
// row-level two-phase locking and savepoints, a write-ahead log with
// checkpointing and crash recovery, snapshots and point-in-time restore.
//
// The engine knows nothing about hashing or blockchains; the ledger logic
// in internal/core attaches through the LedgerHook interface and through
// per-transaction state, mirroring how SQL Ledger extends SQL Server's DML
// plans, commit path and checkpointer (§3.2–§3.3 of the paper).
package engine

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"sqlledger/internal/sqltypes"
)

// LedgerKind classifies how a table participates in the ledger. The engine
// stores but does not interpret it; internal/core drives the semantics.
type LedgerKind string

// Ledger kinds.
const (
	LedgerNone       LedgerKind = ""
	LedgerUpdateable LedgerKind = "updateable"
	LedgerAppendOnly LedgerKind = "append_only"
	LedgerHistory    LedgerKind = "history"
)

// TableMeta is the catalog entry for a table.
type TableMeta struct {
	ID     uint32
	Name   string
	Schema *sqltypes.Schema
	// Heap marks tables without a primary key; rows are addressed by an
	// 8-byte row identifier (RID) assigned at insert.
	Heap bool
	// System marks engine/ledger system tables (sys_ledger_*).
	System bool

	Ledger LedgerKind
	// HistoryTableID links an updateable ledger table to its history table.
	HistoryTableID uint32
	// BaseTableID links a history table back to its ledger table.
	BaseTableID uint32

	// Dropped tables are renamed, never deleted (§3.5.2). OriginalName
	// preserves the pre-drop name.
	Dropped      bool
	OriginalName string
}

// IndexMeta is the catalog entry for a nonclustered index.
type IndexMeta struct {
	ID      uint32
	Name    string
	TableID uint32
	// Cols holds the ordinals of the indexed columns, in index key order.
	Cols []int
}

// catalog holds all table and index metadata plus id allocation state. It
// is guarded by DB.mu.
type catalog struct {
	Tables      map[uint32]*TableMeta
	Indexes     map[uint32]*IndexMeta
	NextTableID uint32
	NextIndexID uint32
	NextTxID    uint64
}

func newCatalog() *catalog {
	return &catalog{
		Tables:      make(map[uint32]*TableMeta),
		Indexes:     make(map[uint32]*IndexMeta),
		NextTableID: 1,
		NextIndexID: 1,
		NextTxID:    1,
	}
}

func (c *catalog) tableByName(name string) *TableMeta {
	for _, m := range c.Tables {
		if !m.Dropped && strings.EqualFold(m.Name, name) {
			return m
		}
	}
	return nil
}

func (c *catalog) marshal() ([]byte, error) { return json.Marshal(c) }

// unmarshalCatalog decodes a snapshot's catalog and checks every entry.
func unmarshalCatalog(b []byte) (*catalog, error) {
	c := newCatalog()
	if err := json.Unmarshal(b, c); err != nil {
		return nil, fmt.Errorf("engine: bad catalog: %w", err)
	}
	for id, m := range c.Tables {
		if err := checkTable(m); err != nil {
			return nil, err
		}
		if m.ID != id || id >= c.NextTableID {
			return nil, fmt.Errorf("engine: catalog: table %d filed under id %d (next id %d)", m.ID, id, c.NextTableID)
		}
	}
	for id, im := range c.Indexes {
		if err := checkIndex(im, c.Tables); err != nil {
			return nil, err
		}
		if im.ID != id || id >= c.NextIndexID {
			return nil, fmt.Errorf("engine: catalog: index %d filed under id %d (next id %d)", im.ID, id, c.NextIndexID)
		}
	}
	return c, nil
}

// checkTable and checkIndex are the one check of catalog metadata, which
// reaches the engine from files a restart reads back as well as from DDL:
// unmarshalCatalog runs them on every entry of a snapshot's catalog, and
// the function of each DDL kind (ddl.go) on the entry it is about to
// install, live or replayed. What passes is used without a nil or range
// check: the entry and its schema are present, and every column ordinal
// it names lies inside its table's schema.
func checkTable(m *TableMeta) error {
	switch {
	case m == nil || m.Schema == nil:
		return fmt.Errorf("engine: catalog: table without metadata or schema")
	case outside(m.Schema.Key, m.Schema):
		return fmt.Errorf("engine: catalog: key of table %d names a column outside its schema", m.ID)
	}
	return nil
}

// checkIndex checks im against tables, the table entries it joins.
func checkIndex(im *IndexMeta, tables map[uint32]*TableMeta) error {
	switch {
	case im == nil:
		return fmt.Errorf("engine: catalog: index without metadata")
	case tables[im.TableID] == nil:
		return fmt.Errorf("engine: catalog: index %d names unknown table %d", im.ID, im.TableID)
	case outside(im.Cols, tables[im.TableID].Schema):
		return fmt.Errorf("engine: catalog: index %d names a column outside the schema of table %d", im.ID, im.TableID)
	}
	return nil
}

// outside reports whether an ordinal of ords lies outside the schema s.
func outside(ords []int, s *sqltypes.Schema) bool {
	return slices.ContainsFunc(ords, func(o int) bool { return o < 0 || o >= len(s.Columns) })
}

// ddlOp is the WAL-logged representation of a catalog mutation. Replaying
// the sequence of ddlOps reproduces the catalog; Meta carries the full
// post-operation TableMeta so replay is a simple upsert.
type ddlOp struct {
	Kind  string // "create_table", "alter_table", "create_index", "drop_index"
	Meta  *TableMeta
	Index *IndexMeta
}

func (o ddlOp) marshal() []byte {
	b, err := json.Marshal(o)
	if err != nil {
		panic(fmt.Sprintf("engine: marshal ddl: %v", err)) // static types: cannot fail
	}
	return b
}

package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"sqlledger/internal/engine"
	"sqlledger/internal/serial"
	"sqlledger/internal/sqltypes"
)

// LedgerTable is the handle through which applications operate on a
// ledger table. DML must go through transactions (tx.go), which maintain
// the history table and the transaction Merkle trees.
type LedgerTable struct {
	db      *DB
	table   *engine.Table
	history *engine.Table // nil for append-only tables

	// Ordinals of the four hidden system columns (§3.1).
	startTxOrd, startSeqOrd, endTxOrd, endSeqOrd int

	// skipEnd is the precomputed skip mask excluding the end-transaction
	// system columns from a version's insert-time hash: they were NULL
	// when the version was created, so excluding them makes the hash
	// recomputable after the version moves to the history table with the
	// end columns populated (§3.1, §3.4). A bitmask instead of a closure
	// keeps the per-row hash path allocation-free.
	skipEnd serial.SkipMask

	// shape is what the ledger layer derives from the table's columns; the
	// column DDL replaces it (refreshShape) under concurrent readers.
	shape atomic.Pointer[tableShape]
}

// tableShape is what every operation on a ledger table needs of its
// columns, computed once per column DDL and read with one atomic load.
type tableShape struct {
	// cols is a copy of the physical columns: user columns, the four hidden
	// ones, then any column added since.
	cols []sqltypes.Column
	// visible holds the ordinals of the application-visible columns,
	// ascending: the columns a read decodes, and no others.
	visible []int
	// layout hashes a version of the table from its stored bytes — the
	// bytes that are logged, so that what is hashed is what is stored. The
	// history table has the same columns: one layout serves both.
	layout *serial.Layout
}

// Name returns the table name.
func (lt *LedgerTable) Name() string { return lt.table.Name() }

// ID returns the base table id.
func (lt *LedgerTable) ID() uint32 { return lt.table.ID() }

// Kind returns whether the table is updateable or append-only.
func (lt *LedgerTable) Kind() engine.LedgerKind { return lt.table.Meta().Ledger }

// Table exposes the underlying engine table (used by verification and
// tamper simulation).
func (lt *LedgerTable) Table() *engine.Table { return lt.table }

// History exposes the history table (nil for append-only tables).
func (lt *LedgerTable) History() *engine.Table { return lt.history }

// Schema returns the table's storage schema: user columns, then the four
// hidden system columns.
func (lt *LedgerTable) Schema() *sqltypes.Schema { return lt.table.Schema() }

// VisibleColumns returns the application-visible columns.
func (lt *LedgerTable) VisibleColumns() []sqltypes.Column { return lt.Schema().VisibleColumns() }

// isReservedColumn reports whether a column name collides with one of the
// hidden system columns.
func isReservedColumn(name string) bool {
	switch strings.ToLower(name) {
	case ColStartTx, ColStartSeq, ColEndTx, ColEndSeq:
		return true
	}
	return false
}

// historyName derives the history table name for a ledger table.
func historyName(base string) string { return base + "__ledger_history" }

// hiddenLedgerColumns returns the four system columns appended to every
// ledger table schema.
func hiddenLedgerColumns() []sqltypes.Column {
	return []sqltypes.Column{
		{Name: ColStartTx, Type: sqltypes.TypeBigInt, Hidden: true},
		{Name: ColStartSeq, Type: sqltypes.TypeBigInt, Hidden: true},
		{Name: ColEndTx, Type: sqltypes.TypeBigInt, Nullable: true, Hidden: true},
		{Name: ColEndSeq, Type: sqltypes.TypeBigInt, Nullable: true, Hidden: true},
	}
}

// CreateLedgerTable creates a ledger table (and, for updateable tables,
// its history table), registers its metadata in the ledger system tables
// and records its ledger-view definition. The schema must not contain
// columns named like the hidden system columns. Updateable tables require
// a primary key.
func (db *DB) CreateLedgerTable(name string, userSchema *sqltypes.Schema, kind engine.LedgerKind) (*LedgerTable, error) {
	return db.createLedgerTable(name, userSchema, kind, false)
}

func (db *DB) createLedgerTable(name string, userSchema *sqltypes.Schema, kind engine.LedgerKind, bootstrapping bool) (*LedgerTable, error) {
	switch kind {
	case engine.LedgerUpdateable, engine.LedgerAppendOnly:
	default:
		return nil, fmt.Errorf("core: invalid ledger kind %q", kind)
	}
	if kind == engine.LedgerUpdateable && len(userSchema.Key) == 0 {
		return nil, fmt.Errorf("core: updateable ledger table %s requires a primary key", name)
	}
	for _, c := range userSchema.Columns {
		if isReservedColumn(c.Name) {
			return nil, fmt.Errorf("core: column name %q is reserved", c.Name)
		}
	}
	cols := append(append([]sqltypes.Column(nil), userSchema.Columns...), hiddenLedgerColumns()...)
	keyNames := make([]string, len(userSchema.Key))
	for i, ord := range userSchema.Key {
		keyNames[i] = userSchema.Columns[ord].Name
	}
	full, err := sqltypes.NewSchema(cols, keyNames...)
	if err != nil {
		return nil, err
	}
	t, err := db.edb.CreateTable(engine.CreateTableSpec{
		Name: name, Schema: full, Ledger: kind, System: bootstrapping,
	})
	if err != nil {
		return nil, err
	}
	var hist *engine.Table
	if kind == engine.LedgerUpdateable {
		// The history table mirrors the columns but is a heap: superseded
		// versions of different rows may collide on the user key.
		hSchema, err := sqltypes.NewSchema(cols)
		if err != nil {
			return nil, err
		}
		hist, err = db.edb.CreateTable(engine.CreateTableSpec{
			Name: historyName(name), Schema: hSchema, Ledger: engine.LedgerHistory, System: bootstrapping,
		})
		if err != nil {
			return nil, err
		}
		histID := hist.ID()
		baseID := t.ID()
		if err := db.edb.AlterTableMeta(baseID, func(m *engine.TableMeta) error {
			m.HistoryTableID = histID
			return nil
		}); err != nil {
			return nil, err
		}
		if err := db.edb.AlterTableMeta(histID, func(m *engine.TableMeta) error {
			m.BaseTableID = baseID
			return nil
		}); err != nil {
			return nil, err
		}
	}
	lt, err := db.wrapLedgerTable(t)
	if err != nil {
		return nil, err
	}
	if err := db.storeViewDefinition(lt); err != nil {
		return nil, err
	}
	if !bootstrapping {
		if err := db.registerTableMetadata(lt); err != nil {
			return nil, err
		}
	}
	return lt, nil
}

// wrapLedgerTable builds the runtime handle for an existing ledger table.
func (db *DB) wrapLedgerTable(t *engine.Table) (*LedgerTable, error) {
	m := t.Meta()
	if m.Ledger != engine.LedgerUpdateable && m.Ledger != engine.LedgerAppendOnly {
		return nil, fmt.Errorf("%w: %s", ErrNotLedgerTable, m.Name)
	}
	lt := &LedgerTable{db: db, table: t}
	s := t.Schema()
	named := func(name string) (int, error) {
		for _, c := range s.Columns {
			if c.Hidden && strings.EqualFold(c.Name, name) {
				return c.Ordinal, nil
			}
		}
		return 0, fmt.Errorf("core: table %s is missing system column %s", m.Name, name)
	}
	var err error
	if lt.startTxOrd, err = named(ColStartTx); err != nil {
		return nil, err
	}
	if lt.startSeqOrd, err = named(ColStartSeq); err != nil {
		return nil, err
	}
	if lt.endTxOrd, err = named(ColEndTx); err != nil {
		return nil, err
	}
	if lt.endSeqOrd, err = named(ColEndSeq); err != nil {
		return nil, err
	}
	lt.skipEnd = serial.NewSkipMask(lt.endTxOrd, lt.endSeqOrd)
	lt.refreshShape()
	if m.Ledger == engine.LedgerUpdateable {
		if lt.history, err = db.edb.TableByID(m.HistoryTableID); err != nil {
			return nil, fmt.Errorf("core: history table of %s: %w", m.Name, err)
		}
	}
	db.tmu.Lock()
	db.tables[m.ID] = lt
	db.tmu.Unlock()
	return lt, nil
}

// LedgerTable returns the handle for a ledger table by name.
func (db *DB) LedgerTable(name string) (*LedgerTable, error) {
	t, err := db.edb.Table(name)
	if err != nil {
		return nil, err
	}
	lt, err := db.tableByID(t.ID())
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotLedgerTable, name)
	}
	return lt, nil
}

func (db *DB) tableByID(id uint32) (*LedgerTable, error) {
	db.tmu.RLock()
	lt, ok := db.tables[id]
	db.tmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotLedgerTable, id)
	}
	return lt, nil
}

// LedgerTables returns handles for all ledger tables (including dropped
// and system ones), ordered by table id.
func (db *DB) LedgerTables() []*LedgerTable {
	db.tmu.RLock()
	defer db.tmu.RUnlock()
	out := make([]*LedgerTable, 0, len(db.tables))
	for _, lt := range db.tables {
		out = append(out, lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// refreshShape recomputes the table's shape; wrapLedgerTable and the column
// DDL call it, so no operation walks the schema to find out what is
// visible.
func (lt *LedgerTable) refreshShape() {
	sh := &tableShape{cols: lt.table.Columns()}
	for i, c := range sh.cols {
		if !c.Hidden && !c.Dropped {
			sh.visible = append(sh.visible, i)
		}
	}
	sh.layout = serial.NewLayout(sh.cols)
	lt.shape.Store(sh)
}

// fullRowInto expands an application row (visible columns, in visible
// order) into a storage row in dst's storage, replaced when too small:
// hidden columns receive the transaction/sequence values, dropped columns
// receive NULL. The row is encoded before the DML call that expanded it
// returns and nothing keeps it, so a transaction expands every row into
// one scratch buffer, and so does each worker of a batched ingest.
func (lt *LedgerTable) fullRowInto(dst sqltypes.Row, visible sqltypes.Row, txID uint64, seq uint32) (sqltypes.Row, error) {
	s := lt.table.Schema()
	if cap(dst) < len(s.Columns) {
		dst = make(sqltypes.Row, len(s.Columns))
	}
	out := dst[:len(s.Columns)]
	vi := 0
	for i := range s.Columns {
		c := &s.Columns[i]
		switch {
		case c.Hidden:
			switch i {
			case lt.startTxOrd:
				out[i] = sqltypes.NewBigInt(int64(txID))
			case lt.startSeqOrd:
				out[i] = sqltypes.NewBigInt(int64(seq))
			default:
				out[i] = sqltypes.NewNull(sqltypes.TypeBigInt)
			}
		case c.Dropped:
			out[i] = sqltypes.NewNull(c.Type)
		default:
			if vi >= len(visible) {
				return nil, fmt.Errorf("core: row for %s has %d values, want %d", lt.Name(), len(visible), len(s.VisibleColumns()))
			}
			out[i] = visible[vi]
			vi++
		}
	}
	if vi != len(visible) {
		return nil, fmt.Errorf("core: row for %s has %d values, want %d", lt.Name(), len(visible), vi)
	}
	return out, nil
}

// registerTableMetadata records the table and its columns in the ledger
// metadata system tables (§3.5.2, Figure 6), via a regular ledger
// transaction so the operations themselves are tamper-evident.
func (db *DB) registerTableMetadata(lt *LedgerTable) error {
	tx := db.Begin("system")
	defer tx.Rollback()
	m := lt.table.Meta()
	metaRow := sqltypes.Row{
		sqltypes.NewBigInt(int64(m.ID)),
		sqltypes.NewNVarChar(m.Name),
		sqltypes.NewNVarChar(string(m.Ledger)),
		sqltypes.NewNull(sqltypes.TypeBigInt),
	}
	if m.HistoryTableID != 0 {
		metaRow[3] = sqltypes.NewBigInt(int64(m.HistoryTableID))
	}
	if err := tx.Insert(db.metaTables, metaRow); err != nil {
		return err
	}
	for _, c := range lt.table.Schema().Columns {
		if c.Hidden {
			continue
		}
		if err := tx.Insert(db.metaColumns, sqltypes.Row{
			sqltypes.NewBigInt(int64(m.ID)),
			sqltypes.NewBigInt(int64(c.Ordinal)),
			sqltypes.NewNVarChar(c.Name),
			sqltypes.NewNVarChar(c.Type.String()),
			sqltypes.NewBit(c.Nullable),
		}); err != nil {
			return err
		}
	}
	return tx.Commit()
}

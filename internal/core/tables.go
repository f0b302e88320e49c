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
//
// On a multi-shard database the table exists — same name, schema and kind
// — on every shard, and the handle DB.LedgerTable returns is a router over
// those parts (parts is set, nothing else): rows go to the part their
// primary key hashes to. What is one chain's artifact (Table, History, ID,
// LedgerView) is asked of a part, reached as db.Shard(i).LedgerTable(name).
type LedgerTable struct {
	parts []*LedgerTable // index = shard; nil on a part (and so on any one-shard database)

	l       *Shard
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

// on returns the table's part on shard i (the table itself on a one-shard
// database). Any part — on(0) — answers questions about the table's name,
// kind and columns: DDL reaches every shard, so they agree on those.
func (lt *LedgerTable) on(i int) *LedgerTable {
	if lt.parts != nil {
		return lt.parts[i]
	}
	return lt
}

// part is the guard of the operations that name one chain's artifact.
func (lt *LedgerTable) part(op string) *LedgerTable {
	if lt.parts != nil {
		panic(multiShard(op, len(lt.parts)))
	}
	return lt
}

// Name returns the table name.
func (lt *LedgerTable) Name() string { return lt.on(0).table.Name() }

// ID returns the base table id within its shard's catalog.
func (lt *LedgerTable) ID() uint32 { return lt.part("LedgerTable.ID").table.ID() }

// Kind returns whether the table is updateable or append-only.
func (lt *LedgerTable) Kind() engine.LedgerKind { return lt.on(0).table.Meta().Ledger }

// Table exposes the underlying engine table (used by verification and
// tamper simulation).
func (lt *LedgerTable) Table() *engine.Table { return lt.part("LedgerTable.Table").table }

// History exposes the history table (nil for append-only tables).
func (lt *LedgerTable) History() *engine.Table { return lt.part("LedgerTable.History").history }

// Schema returns the table's storage schema: user columns, then the four
// hidden system columns.
func (lt *LedgerTable) Schema() *sqltypes.Schema { return lt.on(0).table.Schema() }

// VisibleColumns returns the application-visible columns.
func (lt *LedgerTable) VisibleColumns() []sqltypes.Column { return lt.Schema().VisibleColumns() }

// ShardOf returns the shard that stores the row with the given primary-key
// values (0 on a one-shard database), so loaders can build transactions
// that touch one shard and commit without two-phase commit.
func (lt *LedgerTable) ShardOf(keyVals ...sqltypes.Value) int {
	i, _ := lt.route(keyVals, nil)
	return i
}

// route returns the shard that stores a row, hashing its primary-key
// values: vals[ords[0]], vals[ords[1]], … of a visible row (ledger schemas
// put user columns first, so key ordinals index it) — or vals itself when
// ords is empty, as a key given as values or the whole visible row of a
// keyless append-only table.
func (lt *LedgerTable) route(vals []sqltypes.Value, ords []int) (int, error) {
	if lt.parts == nil {
		return 0, nil
	}
	key := vals
	if len(ords) > 0 {
		var buf [8]sqltypes.Value
		key = buf[:0]
		for _, ord := range ords {
			if ord >= len(vals) {
				return 0, fmt.Errorf("core: row for %s is missing key column %d", lt.Name(), ord)
			}
			key = append(key, vals[ord])
		}
	}
	return int(fnv64a(sqltypes.EncodeKey(nil, key...)) % uint64(len(lt.parts))), nil
}

// fnv64a is FNV-1a, inlined so routing adds no dependency. The map from
// key to shard is deterministic, which is what makes the digests of a
// multi-shard history reproducible under a logical clock.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

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
// its history table) on every shard, registers its metadata in the ledger
// system tables and records its ledger-view definition. The schema must
// not contain columns named like the hidden system columns. Updateable
// tables require a primary key.
func (db *DB) CreateLedgerTable(name string, userSchema *sqltypes.Schema, kind engine.LedgerKind) (*LedgerTable, error) {
	return db.tableOf(func(l *Shard) (*LedgerTable, error) {
		return l.createLedgerTable(name, userSchema, kind, false)
	})
}

// LedgerTable returns the handle for a ledger table by name.
func (db *DB) LedgerTable(name string) (*LedgerTable, error) {
	return db.tableOf(func(l *Shard) (*LedgerTable, error) { return l.LedgerTable(name) })
}

// tableOf builds a table handle from each shard's part: the part itself
// on a one-shard database, a router over the parts otherwise.
func (db *DB) tableOf(part func(*Shard) (*LedgerTable, error)) (*LedgerTable, error) {
	parts, err := fanOut(db, false, func(_ int, l *Shard) (*LedgerTable, error) { return part(l) })
	switch {
	case err != nil:
		return nil, err
	case len(parts) == 1:
		return parts[0], nil
	}
	return &LedgerTable{parts: parts}, nil
}

// LedgerTables returns handles for all ledger tables (including dropped
// and system ones), ordered by table id.
func (db *DB) LedgerTables() []*LedgerTable {
	first := db.shards[0].LedgerTables()
	if len(db.shards) == 1 {
		return first
	}
	out := make([]*LedgerTable, 0, len(first))
	for _, p := range first {
		// DDL reaches the shards in one order, so a table has one id on all.
		lt, err := db.tableOf(func(l *Shard) (*LedgerTable, error) { return l.tableByID(p.table.ID()) })
		if err == nil {
			out = append(out, lt)
		}
	}
	return out
}

func (l *Shard) createLedgerTable(name string, userSchema *sqltypes.Schema, kind engine.LedgerKind, bootstrapping bool) (*LedgerTable, error) {
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
	t, err := l.edb.CreateTable(engine.CreateTableSpec{
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
		hist, err = l.edb.CreateTable(engine.CreateTableSpec{
			Name: historyName(name), Schema: hSchema, Ledger: engine.LedgerHistory, System: bootstrapping,
		})
		if err != nil {
			return nil, err
		}
		histID := hist.ID()
		baseID := t.ID()
		if err := l.edb.AlterTableMeta(baseID, func(m *engine.TableMeta) error {
			m.HistoryTableID = histID
			return nil
		}); err != nil {
			return nil, err
		}
		if err := l.edb.AlterTableMeta(histID, func(m *engine.TableMeta) error {
			m.BaseTableID = baseID
			return nil
		}); err != nil {
			return nil, err
		}
	}
	lt, err := l.wrapLedgerTable(t)
	if err != nil {
		return nil, err
	}
	if err := l.storeViewDefinition(lt); err != nil {
		return nil, err
	}
	if !bootstrapping {
		if err := l.registerTableMetadata(lt); err != nil {
			return nil, err
		}
	}
	return lt, nil
}

// wrapLedgerTable builds the runtime handle for an existing ledger table.
func (l *Shard) wrapLedgerTable(t *engine.Table) (*LedgerTable, error) {
	m := t.Meta()
	if m.Ledger != engine.LedgerUpdateable && m.Ledger != engine.LedgerAppendOnly {
		return nil, fmt.Errorf("%w: %s", ErrNotLedgerTable, m.Name)
	}
	lt := &LedgerTable{l: l, table: t}
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
		if lt.history, err = l.edb.TableByID(m.HistoryTableID); err != nil {
			return nil, fmt.Errorf("core: history table of %s: %w", m.Name, err)
		}
	}
	l.tmu.Lock()
	l.tables[m.ID] = lt
	l.tmu.Unlock()
	return lt, nil
}

// LedgerTable returns the handle for this shard's part of a ledger table.
func (l *Shard) LedgerTable(name string) (*LedgerTable, error) {
	t, err := l.edb.Table(name)
	if err != nil {
		return nil, err
	}
	lt, err := l.tableByID(t.ID())
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotLedgerTable, name)
	}
	return lt, nil
}

func (l *Shard) tableByID(id uint32) (*LedgerTable, error) {
	l.tmu.RLock()
	lt, ok := l.tables[id]
	l.tmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotLedgerTable, id)
	}
	return lt, nil
}

// LedgerTables returns this shard's parts of all ledger tables (including
// dropped and system ones), ordered by table id.
func (l *Shard) LedgerTables() []*LedgerTable {
	l.tmu.RLock()
	defer l.tmu.RUnlock()
	out := make([]*LedgerTable, 0, len(l.tables))
	for _, lt := range l.tables {
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
func (l *Shard) registerTableMetadata(lt *LedgerTable) error {
	tx := l.begin("system")
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
	if err := tx.Insert(l.metaTables, metaRow); err != nil {
		return err
	}
	for _, c := range lt.table.Schema().Columns {
		if c.Hidden {
			continue
		}
		if err := tx.Insert(l.metaColumns, sqltypes.Row{
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

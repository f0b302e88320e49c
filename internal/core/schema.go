package core

import (
	"fmt"
	"slices"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// Schema changes on ledger tables (§3.5). Physical changes (indexes) go
// straight to the engine: hashes cover logical data only. Logical changes
// must preserve every hash already recorded in the ledger:
//
//   - Adding a nullable column is hash-compatible because NULLs are
//     skipped during serialization (§3.5.1).
//   - Dropping a column or table renames/hides the object; the data stays
//     for verification and auditing (§3.5.2).
//   - Altering a column type is drop + add + repopulate (§3.5.3).
//
// Every change is recorded in the ledger metadata system tables, so the
// operations themselves are tamper-evident (Figure 6).

// AddColumn appends a nullable column to a ledger table (and its history
// table). Existing row hashes are unaffected: the new column is NULL for
// existing rows and NULLs never enter the serialization.
func (db *DB) AddColumn(lt *LedgerTable, col sqltypes.Column) error {
	if !col.Nullable {
		return fmt.Errorf("core: added column %q must be nullable", col.Name)
	}
	if isReservedColumn(col.Name) {
		return fmt.Errorf("core: column name %q is reserved", col.Name)
	}
	if lt.table.Schema().OrdinalOf(col.Name) >= 0 {
		return fmt.Errorf("core: column %q already exists in %s", col.Name, lt.Name())
	}
	addTo := func(tableID uint32) (int, error) {
		var ord int
		err := db.edb.AlterTableMeta(tableID, func(m *engine.TableMeta) error {
			c := col
			c.Ordinal = len(m.Schema.Columns)
			ord = c.Ordinal
			m.Schema.Columns = append(m.Schema.Columns, c)
			return nil
		})
		return ord, err
	}
	ord, err := addTo(lt.table.ID())
	if err != nil {
		return err
	}
	if lt.history != nil {
		hOrd, err := addTo(lt.history.ID())
		if err != nil {
			return err
		}
		if hOrd != ord {
			return fmt.Errorf("core: ledger/history column ordinals diverged (%d vs %d)", ord, hOrd)
		}
	}
	lt.refreshShape()
	if err := db.storeViewDefinition(lt); err != nil {
		return err
	}
	if lt.table.Meta().System {
		return nil
	}
	tx := db.Begin("system")
	defer tx.Rollback()
	if err := tx.Insert(db.metaColumns, sqltypes.Row{
		sqltypes.NewBigInt(int64(lt.ID())),
		sqltypes.NewBigInt(int64(ord)),
		sqltypes.NewNVarChar(col.Name),
		sqltypes.NewNVarChar(col.Type.String()),
		sqltypes.NewBit(col.Nullable),
	}); err != nil {
		return err
	}
	return tx.Commit()
}

// droppedColumnName mangles a dropped column's name so a future column can
// reuse the original name.
func droppedColumnName(name string, ordinal int) string {
	return fmt.Sprintf("MS_DroppedColumn_%s_%d", name, ordinal)
}

// DropColumn logically drops a column: it is hidden from
// applications and renamed, but its data remains available to verification
// and the ledger views (§3.5.2).
func (db *DB) DropColumn(lt *LedgerTable, name string) error {
	ord := lt.table.Schema().OrdinalOf(name)
	if ord < 0 {
		return fmt.Errorf("core: column %q not found in %s", name, lt.Name())
	}
	if lt.table.Schema().Columns[ord].Hidden {
		return fmt.Errorf("core: column %q is a system column", name)
	}
	for _, k := range lt.table.Schema().Key {
		if k == ord {
			return fmt.Errorf("core: cannot drop primary-key column %q", name)
		}
	}
	drop := func(tableID uint32) error {
		return db.edb.AlterTableMeta(tableID, func(m *engine.TableMeta) error {
			c := &m.Schema.Columns[ord]
			c.Dropped = true
			c.Name = droppedColumnName(c.Name, ord)
			return nil
		})
	}
	if err := drop(lt.table.ID()); err != nil {
		return err
	}
	if lt.history != nil {
		if err := drop(lt.history.ID()); err != nil {
			return err
		}
	}
	lt.refreshShape()
	if err := db.storeViewDefinition(lt); err != nil {
		return err
	}
	if lt.table.Meta().System {
		return nil
	}
	// Record the drop: delete the column's metadata row (the deletion
	// itself lands in the metadata table's history — Figure 6 semantics).
	tx := db.Begin("system")
	defer tx.Rollback()
	if err := tx.Delete(db.metaColumns,
		sqltypes.NewBigInt(int64(lt.ID())), sqltypes.NewBigInt(int64(ord))); err != nil {
		return err
	}
	return tx.Commit()
}

// AlterColumnType changes a column's data type by dropping the old column,
// adding a new one with the original name, and repopulating it row by row
// through regular ledger DML using convert (§3.5.3). The repopulation is
// one ledger transaction: every affected row version lands in
// the history table and the ledger like any application update.
func (db *DB) AlterColumnType(lt *LedgerTable, name string, newType sqltypes.TypeID, convert func(sqltypes.Value) (sqltypes.Value, error)) error {
	if lt.Kind() == engine.LedgerAppendOnly {
		return fmt.Errorf("%w: cannot alter column types of %s", ErrAppendOnly, lt.Name())
	}
	oldOrd := lt.table.Schema().OrdinalOf(name)
	if oldOrd < 0 {
		return fmt.Errorf("core: column %q not found in %s", name, lt.Name())
	}
	if err := db.DropColumn(lt, name); err != nil {
		return err
	}
	if err := db.AddColumn(lt, sqltypes.Column{Name: name, Type: newType, Nullable: true}); err != nil {
		return err
	}
	// New column is appended, so it is the last visible column.
	newVisPos := len(lt.table.Schema().VisibleColumns()) - 1

	// Repopulate: read the pre-change value from the dropped column (it
	// is still stored) and write the converted value through regular DML.
	tx := db.Begin("system")
	defer tx.Rollback()
	var updates []sqltypes.Row
	var convErr error
	ords := append(slices.Clone(lt.shape.Load().visible), oldOrd) // visible row, then the old value
	err := tx.etx.ScanColumns(lt.table, ords, nil, nil, func(_ []byte, row sqltypes.Row) bool {
		vis := row[:newVisPos+1]
		nv, cerr := convert(row[newVisPos+1])
		if cerr != nil {
			convErr = fmt.Errorf("core: converting %s of row %s: %w", name, vis, cerr)
			return false
		}
		// The visible row no longer contains the dropped column; the new
		// column sits at the end.
		vis = vis.Clone()
		vis[newVisPos] = nv
		updates = append(updates, vis)
		return true
	})
	if err != nil {
		return err
	}
	if convErr != nil {
		return convErr
	}
	for _, u := range updates {
		if err := tx.Update(lt, u); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// droppedTableName mangles a dropped table's name (Figure 6 uses the
// MS_DroppedTable_ prefix).
func droppedTableName(name string, id uint32) string {
	return fmt.Sprintf("MS_DroppedTable_%s_%d", name, id)
}

// DropLedgerTable logically drops a ledger table: the table
// (and its history table) is renamed and hidden from the application
// namespace, but its data remains in the database for verification and
// auditing (§3.5.2). The drop is recorded in the metadata ledger so users
// can distinguish an intentional drop from the drop-and-replace attack the
// paper describes.
func (db *DB) DropLedgerTable(name string) error {
	lt, err := db.LedgerTable(name)
	if err != nil {
		return err
	}
	if lt.table.Meta().System {
		return fmt.Errorf("core: cannot drop system table %s", name)
	}
	rename := func(tableID uint32) error {
		return db.edb.AlterTableMeta(tableID, func(m *engine.TableMeta) error {
			m.Dropped = true
			m.OriginalName = m.Name
			m.Name = droppedTableName(m.Name, m.ID)
			return nil
		})
	}
	if err := rename(lt.table.ID()); err != nil {
		return err
	}
	if lt.history != nil {
		if err := rename(lt.history.ID()); err != nil {
			return err
		}
	}
	// The rename changes the canonical view definition; refresh it so
	// verification does not mistake the legitimate DDL for tampering.
	if err := db.storeViewDefinition(lt); err != nil {
		return err
	}
	// Record the drop in the metadata ledger (Figure 6): delete the
	// table's row and its column rows; the deletions are preserved in the
	// metadata history tables.
	tx := db.Begin("system")
	defer tx.Rollback()
	if err := tx.Delete(db.metaTables, sqltypes.NewBigInt(int64(lt.ID()))); err != nil {
		return err
	}
	var colOrds []int64
	verr := tx.etx.Scan(db.metaColumns.table, func(_ []byte, full sqltypes.Row) bool {
		if uint64(full[0].Int()) == uint64(lt.ID()) {
			colOrds = append(colOrds, full[1].Int())
		}
		return true
	})
	if verr != nil {
		return verr
	}
	for _, ord := range colOrds {
		if err := tx.Delete(db.metaColumns,
			sqltypes.NewBigInt(int64(lt.ID())), sqltypes.NewBigInt(ord)); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// TableOperation is one row of the table-metadata ledger view (Figure 6).
type TableOperation struct {
	TableName string
	TableID   uint32
	Operation string // "CREATE" or "DROP"
	TxID      uint64
}

// TableOperations reports every CREATE/DROP of a ledger table, derived
// from the metadata ledger view — what users consult to detect the
// drop-and-replace attack (§3.5.2).
func (db *DB) TableOperations() ([]TableOperation, error) {
	view, err := db.metaTables.LedgerView()
	if err != nil {
		return nil, err
	}
	var out []TableOperation
	for _, vr := range view {
		op := "CREATE"
		if vr.Operation == "DELETE" {
			op = "DROP"
		}
		out = append(out, TableOperation{
			TableName: vr.Row[1].Str,
			TableID:   uint32(vr.Row[0].Int()),
			Operation: op,
			TxID:      vr.TxID,
		})
	}
	return out, nil
}

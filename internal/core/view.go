package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// LedgerViewRow is one row of a table's ledger view (§2.1, Figure 2):
// one entry per row-version operation, joining the visible column values
// with the transaction that performed the operation.
type LedgerViewRow struct {
	Row       sqltypes.Row // visible columns
	Operation string       // "INSERT" or "DELETE"
	TxID      uint64
	Seq       uint64
}

// LedgerView materializes the ledger view of a table from the current
// committed state of the ledger and history tables: every version in the
// ledger table contributes an INSERT entry; every version in the history
// table contributes both its INSERT entry (it was created at some point)
// and its DELETE entry. Results are ordered by (TxID, Seq). A stored
// version that does not decode fails the view, naming the table. It
// decodes the visible columns and the hidden ones it reports, no others,
// from the stored bytes of one snapshot of both tables.
func (lt *LedgerTable) LedgerView() ([]LedgerViewRow, error) {
	sh := lt.shape.Load()
	n := len(sh.visible)
	ords := append(slices.Clone(sh.visible), lt.startTxOrd, lt.startSeqOrd, lt.endTxOrd, lt.endSeqOrd)
	rtx := lt.db.edb.BeginReadOnly()
	defer rtx.Close()
	var out []LedgerViewRow
	var err error
	scan := func(t *engine.Table) {
		rtx.ScanRangeStored(t, nil, nil, func(_, stored []byte) bool {
			r := make(sqltypes.Row, len(ords))
			if derr := sqltypes.DecodeColumns(r, stored, ords, sh.cols); derr != nil {
				err = fmt.Errorf("core: ledger view of %s: a stored row of %s does not decode: %w", lt.table.Name(), t.Name(), derr)
				return false
			}
			hidden := r[n:]
			out = append(out, LedgerViewRow{Row: r[:n], Operation: "INSERT",
				TxID: uint64(hidden[0].Int()), Seq: uint64(hidden[1].Int())})
			if t == lt.history {
				out = append(out, LedgerViewRow{Row: r[:n], Operation: "DELETE",
					TxID: uint64(hidden[2].Int()), Seq: uint64(hidden[3].Int())})
			}
			return true
		})
	}
	scan(lt.table)
	if lt.history != nil && err == nil {
		scan(lt.history)
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TxID != out[j].TxID {
			return out[i].TxID < out[j].TxID
		}
		return out[i].Seq < out[j].Seq
	})
	return out, nil
}

// TransactionInfo returns the ledger entry metadata for a transaction id
// of the chain, letting ledger-view consumers retrieve who
// executed an operation and when (§2.1).
func (db *DB) TransactionInfo(txID uint64) (user string, commitTS int64, blockID uint64, ok bool) {
	e, err := db.entryOfTx(txID)
	if err != nil {
		return "", 0, 0, false
	}
	return e.User, e.CommitTS, e.BlockID, true
}

// canonicalViewDefinition is the generated definition of a table's ledger
// view. It is stored in sys_ledger_views when the table is created and
// re-derived during verification: a mismatch means the view artifact was
// tampered with (§3.4.2, final step).
func (lt *LedgerTable) canonicalViewDefinition() string {
	s := lt.table.Schema()
	cols := make([]string, 0, len(s.Columns))
	for _, c := range s.Columns {
		if !c.Hidden && !c.Dropped {
			cols = append(cols, c.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE VIEW %s_ledger AS ", lt.table.Name())
	fmt.Fprintf(&b, "SELECT %s, %s AS transaction_id, %s AS sequence_number, 'INSERT' AS operation FROM %s",
		strings.Join(cols, ", "), ColStartTx, ColStartSeq, lt.table.Name())
	if lt.history != nil {
		fmt.Fprintf(&b, " UNION ALL SELECT %s, %s, %s, 'INSERT' FROM %s",
			strings.Join(cols, ", "), ColStartTx, ColStartSeq, lt.history.Name())
		fmt.Fprintf(&b, " UNION ALL SELECT %s, %s, %s, 'DELETE' FROM %s",
			strings.Join(cols, ", "), ColEndTx, ColEndSeq, lt.history.Name())
	}
	return b.String()
}

// storeViewDefinition records (or refreshes) the ledger-view definition
// for a table in the sys_ledger_views system table.
func (db *DB) storeViewDefinition(lt *LedgerTable) error {
	def := lt.canonicalViewDefinition()
	row := sqltypes.Row{
		sqltypes.NewBigInt(int64(lt.ID())),
		sqltypes.NewNVarChar(def),
	}
	tx := db.edb.Begin("system")
	defer tx.Rollback()
	key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(lt.ID())))
	if _, ok, _ := tx.GetStored(db.sysViews, key); ok {
		if _, err := tx.UpdateByKey(db.sysViews, key, row); err != nil {
			return err
		}
	} else if _, err := tx.Insert(db.sysViews, row); err != nil {
		return err
	}
	_, err := db.edb.Commit(tx)
	return err
}

// ViewDefinition returns the stored ledger-view definition for a table
// (none when its row does not decode: Verify reports that).
func (db *DB) ViewDefinition(tableID uint32) (string, bool) {
	def, ok, _ := db.viewDefinition(tableID)
	return def, ok
}

// viewDefinition reads a table's sys_ledger_views row from its stored
// bytes, failing, naming the table id, where they are no row.
func (db *DB) viewDefinition(tableID uint32) (string, bool, error) {
	stored, ok := db.sysViews.LookupStored(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(tableID))))
	if !ok {
		return "", false, nil
	}
	r, err := sysRow(nil, stored, sysViewsSchema)
	if err != nil {
		return "", false, fmt.Errorf("table %d: its %s row does not decode: %w", tableID, sysViewsName, err)
	}
	return r[1].Str, true, nil
}

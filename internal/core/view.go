package core

import (
	"fmt"
	"sort"
	"strings"

	"sqlledger/internal/sqltypes"
)

// LedgerViewRow is one row of a table's ledger view (§2.1, Figure 2):
// one entry per row-version operation, joining the visible column values
// with the transaction that performed the operation.
type LedgerViewRow struct {
	Row       sqltypes.Row // visible columns
	Operation string       // "INSERT" or "DELETE"
	TxID      uint64       // numbers the transaction within shard Shard's chain
	Seq       uint64
	Shard     int
}

// LedgerView materializes the ledger view of a table from the current
// committed state of the ledger and history tables: every version in the
// ledger table contributes an INSERT entry; every version in the history
// table contributes both its INSERT entry (it was created at some point)
// and its DELETE entry. Results are ordered by (TxID, Seq) — shard by
// shard on a multi-shard database, each row carrying its shard.
func (lt *LedgerTable) LedgerView() []LedgerViewRow {
	var out []LedgerViewRow
	for i, p := range lt.parts {
		for _, vr := range p.LedgerView() {
			vr.Shard = i
			out = append(out, vr)
		}
	}
	if lt.parts != nil {
		return out
	}
	lt.table.Scan(func(_ []byte, full sqltypes.Row) bool {
		out = append(out, LedgerViewRow{
			Row:       lt.VisibleRow(full),
			Operation: "INSERT",
			TxID:      uint64(full[lt.startTxOrd].Int()),
			Seq:       uint64(full[lt.startSeqOrd].Int()),
		})
		return true
	})
	if lt.history != nil {
		lt.history.Scan(func(_ []byte, full sqltypes.Row) bool {
			vis := lt.VisibleRow(full)
			out = append(out, LedgerViewRow{
				Row:       vis,
				Operation: "INSERT",
				TxID:      uint64(full[lt.startTxOrd].Int()),
				Seq:       uint64(full[lt.startSeqOrd].Int()),
			})
			out = append(out, LedgerViewRow{
				Row:       vis,
				Operation: "DELETE",
				TxID:      uint64(full[lt.endTxOrd].Int()),
				Seq:       uint64(full[lt.endSeqOrd].Int()),
			})
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TxID != out[j].TxID {
			return out[i].TxID < out[j].TxID
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// TransactionInfo returns the ledger entry metadata for a transaction id
// of this shard's chain, letting ledger-view consumers retrieve who
// executed an operation and when (§2.1). It consults both the system table
// and the in-memory queue.
func (l *Shard) TransactionInfo(txID uint64) (user string, commitTS int64, blockID uint64, ok bool) {
	key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(txID)))
	if r, found := l.sysTx.Lookup(key); found {
		return r[4].Str, r[3].Int(), uint64(r[1].Int()), true
	}
	l.lmu.Lock()
	defer l.lmu.Unlock()
	for _, e := range l.queue {
		if e.TxID == txID {
			return e.User, e.CommitTS, e.BlockID, true
		}
	}
	return "", 0, 0, false
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
func (l *Shard) storeViewDefinition(lt *LedgerTable) error {
	def := lt.canonicalViewDefinition()
	row := sqltypes.Row{
		sqltypes.NewBigInt(int64(lt.ID())),
		sqltypes.NewNVarChar(def),
	}
	tx := l.edb.Begin("system")
	defer tx.Rollback()
	key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(lt.ID())))
	if _, ok, _ := tx.GetByKey(l.sysViews, key, nil); ok {
		if _, err := tx.UpdateByKey(l.sysViews, key, row); err != nil {
			return err
		}
	} else if _, err := tx.Insert(l.sysViews, row); err != nil {
		return err
	}
	_, err := l.edb.Commit(tx)
	return err
}

// ViewDefinition returns the stored ledger-view definition for a table.
func (l *Shard) ViewDefinition(tableID uint32) (string, bool) {
	key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(tableID)))
	r, ok := l.sysViews.Lookup(key)
	if !ok {
		return "", false
	}
	return r[1].Str, true
}

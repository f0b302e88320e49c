package main

import (
	"sqlledger"
)

// The history shape shared by verify and recover: a ledger built by one
// writer from transactions of three inserts and two updates of 260-byte
// rows, over two updateable tables with one nonclustered index each and
// one append-only table.
type histTables struct {
	a, b, log *table
}

func histSchema(st *store) (*histTables, error) {
	var t histTables
	var err error
	if t.a, err = st.create("hist_a", wideSchema(), true, sqlledger.Updateable); err != nil {
		return nil, err
	}
	if t.b, err = st.create("hist_b", wideSchema(), true, sqlledger.Updateable); err != nil {
		return nil, err
	}
	if t.log, err = st.create("hist_log", wideSchema(), true, sqlledger.AppendOnly); err != nil {
		return nil, err
	}
	for _, tb := range []*table{t.a, t.b} {
		if err := st.index(tb, "a"); err != nil {
			return nil, err
		}
	}
	return &t, nil
}

// histTx commits transaction i (1-based) of the build and returns its
// transaction id: it inserts row i into each table and rewrites an
// earlier row of each updateable table.
func histTx(c *client, t *histTables, i int64) (uint64, error) {
	g := c.g
	rows := [3]sqlledger.Row{wideRow(g, i), wideRow(g, i), wideRow(g, i)}
	var upd [2]sqlledger.Row
	if i > 1 {
		upd = [2]sqlledger.Row{wideRow(g, g.uniform(1, int(i-1))), wideRow(g, g.uniform(1, int(i-1)))}
	}
	c.begin("writer")
	id := c.tx.ID()
	for k, tb := range []*table{t.a, t.b, t.log} {
		if err := c.insert(tb, rows[k]); err != nil {
			c.abort()
			return 0, err
		}
	}
	if i > 1 {
		for k, tb := range []*table{t.a, t.b} {
			if err := c.update(tb, upd[k]); err != nil {
				c.abort()
				return 0, err
			}
		}
	}
	return id, c.commit()
}

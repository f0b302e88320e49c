package main

import (
	"fmt"
	"sort"

	"sqlledger"
)

// The tpcc workload: a TPC-C-like order-processing mix, adapted from the
// paper's §4.1.1 set-up. Nine tables; on the ledger twin the four
// order/payment tables are ledger tables, as in the paper. Two changes
// from a textbook TPC-C make every operation succeed, and both twins
// end with the same rows, under two concurrent clients on an engine
// whose reads take no locks: order and payment-history ids are drawn by
// the generator instead of read from a counter row, and Delivery
// delivers the oldest order the client itself placed in each district
// instead of scanning for whatever another client has committed by
// then. The district row is still read and written by every New-Order
// and Payment, so the two clients do collide on row locks.
const (
	tpccWarehouses           = 2
	tpccDistrictsPerWH       = 10
	tpccCustomersPerDistrict = 30
	tpccItems                = 1000
	tpccFirstOrderID         = 31
	tpccBlockSize            = 10_000
	// tpccOpsPerSecond sizes a round: transactions per client per round
	// for each second of -seconds, from the reference host (README.md).
	tpccOpsPerSecond = 130
)

type tpccTables struct {
	warehouse, district, customer, history   *table
	item, stock, orders, newOrder, orderLine *table
}

func bigint(v int64) sqlledger.Value { return sqlledger.BigInt(v) }

func tpccSchema(st *store) (*tpccTables, error) {
	var t tpccTables
	var err error
	mk := func(dst **table, name string, ledgerSet bool, cols []sqlledger.Column, key ...string) {
		if err != nil {
			return
		}
		*dst, err = st.create(name, sqlledger.MustSchema(cols, key...), ledgerSet, sqlledger.Updateable)
	}
	big, str, ts := sqlledger.TypeBigInt, sqlledger.TypeNVarChar, sqlledger.TypeDateTime
	col, null := sqlledger.Col, sqlledger.NullableCol
	mk(&t.warehouse, "tpcc_warehouse", false, []sqlledger.Column{
		col("w_id", big), col("w_name", str), col("w_ytd", big)}, "w_id")
	mk(&t.district, "tpcc_district", false, []sqlledger.Column{
		col("d_w_id", big), col("d_id", big), col("d_name", str),
		col("d_next_o_id", big), col("d_ytd", big)}, "d_w_id", "d_id")
	mk(&t.customer, "tpcc_customer", false, []sqlledger.Column{
		col("c_w_id", big), col("c_d_id", big), col("c_id", big), col("c_name", str),
		col("c_balance", big), col("c_ytd_payment", big), col("c_payment_cnt", big),
		col("c_data", str)}, "c_w_id", "c_d_id", "c_id")
	mk(&t.item, "tpcc_item", false, []sqlledger.Column{
		col("i_id", big), col("i_name", str), col("i_price", big)}, "i_id")
	mk(&t.stock, "tpcc_stock", false, []sqlledger.Column{
		col("s_w_id", big), col("s_i_id", big), col("s_quantity", big),
		col("s_ytd", big), col("s_order_cnt", big)}, "s_w_id", "s_i_id")
	// The four tables the paper converts to ledger tables.
	mk(&t.history, "tpcc_payment_history", true, []sqlledger.Column{
		col("h_id", big), col("h_c_w_id", big), col("h_c_d_id", big), col("h_c_id", big),
		col("h_amount", big), col("h_date", ts), col("h_data", str)}, "h_id")
	mk(&t.orders, "tpcc_orders", true, []sqlledger.Column{
		col("o_w_id", big), col("o_d_id", big), col("o_id", big), col("o_c_id", big),
		col("o_entry_d", ts), null("o_carrier_id", big), col("o_ol_cnt", big)},
		"o_w_id", "o_d_id", "o_id")
	mk(&t.newOrder, "tpcc_new_order", true, []sqlledger.Column{
		col("no_w_id", big), col("no_d_id", big), col("no_o_id", big)},
		"no_w_id", "no_d_id", "no_o_id")
	if err == nil {
		t.orderLine, err = st.create("tpcc_order_line", orderLineSchema(), true, sqlledger.Updateable)
	}
	return &t, err
}

func orderLineSchema() *sqlledger.Schema {
	big, col := sqlledger.TypeBigInt, sqlledger.Col
	return sqlledger.MustSchema([]sqlledger.Column{
		col("ol_w_id", big), col("ol_d_id", big), col("ol_o_id", big), col("ol_number", big),
		col("ol_i_id", big), col("ol_quantity", big), col("ol_amount", big),
		sqlledger.NullableCol("ol_delivery_d", sqlledger.TypeDateTime)},
		"ol_w_id", "ol_d_id", "ol_o_id", "ol_number")
}

// tpccLoad fills the schema from the loader's generator, in batched
// transactions.
func tpccLoad(c *client, t *tpccTables) error {
	g := c.g
	batch := c.load
	var rows []sqlledger.Row
	for i := 1; i <= tpccItems; i++ {
		rows = append(rows, sqlledger.Row{bigint(int64(i)),
			sqlledger.NVarChar("item-" + g.filler(14)), bigint(g.uniform(100, 10000))})
	}
	if err := batch(t.item, rows); err != nil {
		return err
	}
	var whs, dists, custs, hist []sqlledger.Row
	hid := int64(0)
	for w := int64(1); w <= tpccWarehouses; w++ {
		whs = append(whs, sqlledger.Row{bigint(w), sqlledger.NVarChar(fmt.Sprintf("warehouse-%d", w)), bigint(0)})
		rows = rows[:0]
		for i := 1; i <= tpccItems; i++ {
			rows = append(rows, sqlledger.Row{bigint(w), bigint(int64(i)),
				bigint(g.uniform(10, 100)), bigint(0), bigint(0)})
		}
		if err := batch(t.stock, rows); err != nil {
			return err
		}
		for d := int64(1); d <= tpccDistrictsPerWH; d++ {
			dists = append(dists, sqlledger.Row{bigint(w), bigint(d),
				sqlledger.NVarChar(fmt.Sprintf("district-%d-%d", w, d)), bigint(tpccFirstOrderID), bigint(0)})
			for cu := int64(1); cu <= tpccCustomersPerDistrict; cu++ {
				custs = append(custs, sqlledger.Row{bigint(w), bigint(d), bigint(cu),
					sqlledger.NVarChar(fmt.Sprintf("customer-%d-%d-%d", w, d, cu)),
					bigint(-1000), bigint(1000), bigint(1), sqlledger.NVarChar(g.filler(100))})
			}
			for k := 0; k < 3; k++ {
				hid++
				hist = append(hist, sqlledger.Row{bigint(hid), bigint(w), bigint(d),
					bigint(g.uniform(1, tpccCustomersPerDistrict)), bigint(g.uniform(100, 5000)),
					g.now(), sqlledger.NVarChar(g.filler(24))})
			}
		}
	}
	for _, l := range []struct {
		tb   *table
		rows []sqlledger.Row
	}{{t.warehouse, whs}, {t.district, dists}, {t.customer, custs}, {t.history, hist}} {
		if err := batch(l.tb, l.rows); err != nil {
			return err
		}
	}
	return nil
}

// tpccHistoryBase keeps generated payment-history ids clear of the
// loader's.
const tpccHistoryBase = 1_000_000

// tpccClient is one terminal: the generator-side state a client carries
// between transactions.
type tpccClient struct {
	t       *tpccTables
	id, n   int // client id, client count
	orders  [tpccWarehouses * tpccDistrictsPerWH]int64
	lastOID map[[3]int64]int64 // (w,d,c) -> this client's latest order
	// pending queues, per district, this client's undelivered orders.
	pending [tpccWarehouses * tpccDistrictsPerWH][]int64
	pays    int64
	lines   []tpccLine
}

type tpccLine struct{ item, qty int64 }

// nextOrderID hands out order ids no other client uses: client k of n
// takes every n-th id of each district.
func (tc *tpccClient) nextOrderID(w, d int64) int64 {
	i := (w-1)*tpccDistrictsPerWH + d - 1
	oid := tpccFirstOrderID + tc.orders[i]*int64(tc.n) + int64(tc.id)
	tc.orders[i]++
	return oid
}

// op runs one transaction of the standard mix: 45% New-Order, 43%
// Payment, 4% each Order-Status, Delivery and Stock-Level.
func (tc *tpccClient) op(c *client) opResult {
	t0 := c.start()
	g := c.g
	x := g.uniform(0, 99)
	w := g.uniform(1, tpccWarehouses)
	d := g.uniform(1, tpccDistrictsPerWH)
	cu := g.nonUniform(1023, 1, tpccCustomersPerDistrict)
	var err error
	switch {
	case x < 45:
		n := int(g.uniform(5, 15))
		tc.lines = tc.lines[:0]
		for i := 0; i < n; i++ {
			tc.lines = append(tc.lines, tpccLine{g.nonUniform(8191, 1, tpccItems), g.uniform(1, 10)})
		}
		// Stock rows are locked in item order, so two New-Orders cannot
		// deadlock on them.
		sort.Slice(tc.lines, func(i, j int) bool { return tc.lines[i].item < tc.lines[j].item })
		oid, now := tc.nextOrderID(w, d), g.now()
		c.done(kindGen, t0, nil, 0)
		err = tc.newOrder(c, w, d, cu, oid, now)
		if err == nil {
			tc.lastOID[[3]int64{w, d, cu}] = oid
			i := (w-1)*tpccDistrictsPerWH + d - 1
			tc.pending[i] = append(tc.pending[i], oid)
		}
	case x < 88:
		amount, now, data := g.uniform(100, 500000), g.now(), g.filler(24)
		tc.pays++
		hid := tpccHistoryBase + tc.pays*int64(tc.n) + int64(tc.id)
		c.done(kindGen, t0, nil, 0)
		err = tc.payment(c, w, d, cu, hid, amount, now, data)
	case x < 92:
		c.done(kindGen, t0, nil, 0)
		err = tc.orderStatus(c, w, d, cu)
	case x < 96:
		carrier, now := g.uniform(1, 10), g.now()
		c.done(kindGen, t0, nil, 0)
		err = tc.delivery(c, w, carrier, now)
	default:
		threshold := g.uniform(10, 20)
		c.done(kindGen, t0, nil, 0)
		err = tc.stockLevel(c, w, d, threshold)
	}
	if err != nil {
		c.abort()
		return opResult{err: err}
	}
	return opResult{work: 1}
}

func (tc *tpccClient) newOrder(c *client, w, d, cu, oid int64, now sqlledger.Value) error {
	t := tc.t
	c.begin("app")
	dRow, err := c.get(t.district, bigint(w), bigint(d))
	if err != nil {
		return err
	}
	dRow = dRow.Clone()
	dRow[3] = bigint(oid + 1)
	if err := c.update(t.district, dRow); err != nil {
		return err
	}
	if _, err := c.get(t.customer, bigint(w), bigint(d), bigint(cu)); err != nil {
		return err
	}
	if err := c.insert(t.orders, sqlledger.Row{bigint(w), bigint(d), bigint(oid), bigint(cu),
		now, sqlledger.Null(sqlledger.TypeBigInt), bigint(int64(len(tc.lines)))}); err != nil {
		return err
	}
	if err := c.insert(t.newOrder, sqlledger.Row{bigint(w), bigint(d), bigint(oid)}); err != nil {
		return err
	}
	for i, ln := range tc.lines {
		iRow, err := c.get(t.item, bigint(ln.item))
		if err != nil {
			return err
		}
		price := iRow[2].Int()
		sRow, err := c.get(t.stock, bigint(w), bigint(ln.item))
		if err != nil {
			return err
		}
		sRow = sRow.Clone()
		q := sRow[2].Int() - ln.qty
		if q < 10 {
			q += 91
		}
		sRow[2], sRow[3], sRow[4] = bigint(q), bigint(sRow[3].Int()+ln.qty), bigint(sRow[4].Int()+1)
		if err := c.update(t.stock, sRow); err != nil {
			return err
		}
		if err := c.insert(t.orderLine, sqlledger.Row{bigint(w), bigint(d), bigint(oid), bigint(int64(i + 1)),
			bigint(ln.item), bigint(ln.qty), bigint(ln.qty * price),
			sqlledger.Null(sqlledger.TypeDateTime)}); err != nil {
			return err
		}
	}
	return c.commit()
}

func (tc *tpccClient) payment(c *client, w, d, cu, hid, amount int64, now sqlledger.Value, data string) error {
	t := tc.t
	c.begin("app")
	wRow, err := c.get(t.warehouse, bigint(w))
	if err != nil {
		return err
	}
	wRow = wRow.Clone()
	wRow[2] = bigint(wRow[2].Int() + amount)
	if err := c.update(t.warehouse, wRow); err != nil {
		return err
	}
	dRow, err := c.get(t.district, bigint(w), bigint(d))
	if err != nil {
		return err
	}
	dRow = dRow.Clone()
	dRow[4] = bigint(dRow[4].Int() + amount)
	if err := c.update(t.district, dRow); err != nil {
		return err
	}
	cRow, err := c.get(t.customer, bigint(w), bigint(d), bigint(cu))
	if err != nil {
		return err
	}
	cRow = cRow.Clone()
	cRow[4], cRow[5], cRow[6] = bigint(cRow[4].Int()-amount), bigint(cRow[5].Int()+amount), bigint(cRow[6].Int()+1)
	if err := c.update(t.customer, cRow); err != nil {
		return err
	}
	if err := c.insert(t.history, sqlledger.Row{bigint(hid), bigint(w), bigint(d), bigint(cu),
		bigint(amount), now, sqlledger.NVarChar(data)}); err != nil {
		return err
	}
	return c.commit()
}

// orderStatus reads a customer, the customer's latest order placed by
// this client (if any) and its lines.
func (tc *tpccClient) orderStatus(c *client, w, d, cu int64) error {
	t := tc.t
	c.begin("app")
	if _, err := c.get(t.customer, bigint(w), bigint(d), bigint(cu)); err != nil {
		return err
	}
	if oid, ok := tc.lastOID[[3]int64{w, d, cu}]; ok {
		if _, err := c.get(t.orders, bigint(w), bigint(d), bigint(oid)); err != nil {
			return err
		}
		if _, err := c.scan(t.orderLine, func(sqlledger.Row) bool { return true },
			bigint(w), bigint(d), bigint(oid)); err != nil {
			return err
		}
	}
	return c.commit()
}

// delivery delivers, in each district of one warehouse, the oldest
// undelivered order this client placed: drops its new_order marker,
// stamps order and lines, and credits the customer.
func (tc *tpccClient) delivery(c *client, w, carrier int64, now sqlledger.Value) error {
	t := tc.t
	c.begin("app")
	for d := int64(1); d <= tpccDistrictsPerWH; d++ {
		q := &tc.pending[(w-1)*tpccDistrictsPerWH+d-1]
		if len(*q) == 0 {
			continue
		}
		oid := (*q)[0]
		*q = (*q)[1:]
		if err := c.delete(t.newOrder, bigint(w), bigint(d), bigint(oid)); err != nil {
			return err
		}
		oRow, err := c.get(t.orders, bigint(w), bigint(d), bigint(oid))
		if err != nil {
			return err
		}
		oRow = oRow.Clone()
		oRow[5] = bigint(carrier)
		if err := c.update(t.orders, oRow); err != nil {
			return err
		}
		var lines []sqlledger.Row
		var total int64
		if _, err := c.scan(t.orderLine, func(r sqlledger.Row) bool {
			lines = append(lines, r.Clone())
			total += r[6].Int()
			return true
		}, bigint(w), bigint(d), bigint(oid)); err != nil {
			return err
		}
		for _, ln := range lines {
			ln[7] = now
			if err := c.update(t.orderLine, ln); err != nil {
				return err
			}
		}
		cRow, err := c.get(t.customer, bigint(w), bigint(d), oRow[3])
		if err != nil {
			return err
		}
		cRow = cRow.Clone()
		cRow[4] = bigint(cRow[4].Int() + total)
		if err := c.update(t.customer, cRow); err != nil {
			return err
		}
	}
	return c.commit()
}

// stockLevel counts the distinct items of a district's first 200 order
// lines whose stock is below a threshold.
func (tc *tpccClient) stockLevel(c *client, w, d, threshold int64) error {
	t := tc.t
	c.begin("app")
	var items []int64
	if _, err := c.scan(t.orderLine, func(r sqlledger.Row) bool {
		items = append(items, r[4].Int())
		return len(items) < 200
	}, bigint(w), bigint(d)); err != nil {
		return err
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	low := 0
	for i, item := range items {
		if i > 0 && item == items[i-1] {
			continue
		}
		sRow, err := c.get(t.stock, bigint(w), bigint(item))
		if err != nil {
			return err
		}
		if sRow[2].Int() < threshold {
			low++
		}
	}
	return c.commit()
}

var tpccWorkload = workload{
	name: "tpcc",
	why:  "TPC-C-like, 2 warehouses, 4 of 9 tables ledger: the paper's worst case, every write-path layer at once (row hash, Merkle, history insert, district row locks, WAL, commit pipeline, block close)",
	setup: func(e *env) (*run, error) {
		return setupTwins(e, twinSpec{
			workload: "tpcc", clients: 2, workUnit: "tx",
			opts:        storeOptions{blockSize: tpccBlockSize},
			opsPerRound: e.cfg.ops(tpccOpsPerSecond, 20),
			spansPerOp:  48,
			obsTwin:     true,
			load: func(c *client) (any, error) {
				t, err := tpccSchema(c.st)
				if err != nil {
					return nil, err
				}
				return t, tpccLoad(c, t)
			},
			client: func(state any, id, n int) func(*client) opResult {
				tc := &tpccClient{t: state.(*tpccTables), id: id, n: n, lastOID: make(map[[3]int64]int64)}
				return tc.op
			},
			// Order lines are most of what tpcc hashes: ten per New-Order,
			// rewritten once more by Delivery.
			kernel: func(any) kernelParams {
				return kernelParams{
					schema: orderLineSchema(),
					row: func(g *gen, i int64) sqlledger.Row {
						return sqlledger.Row{bigint(1 + i%tpccWarehouses), bigint(1 + i%tpccDistrictsPerWH), bigint(i / 10), bigint(i % 10),
							bigint(g.uniform(1, tpccItems)), bigint(g.uniform(1, 10)), bigint(g.uniform(100, 100000)),
							sqlledger.Null(sqlledger.TypeDateTime)}
					},
					leavesPerTx: 10, blockSize: tpccBlockSize, tableRows: 100_000,
				}
			},
		})
	},
}

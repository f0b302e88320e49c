package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sqlledger"
)

// errSkip marks a transaction that found nothing to do (e.g. Delivery with
// no pending orders); the driver treats it as a no-op, not a failure.
var errSkip = errors.New("workload: nothing to do")

// NewOrder places an order: bumps the district's next order id, inserts
// the order, its new_order marker and 5–15 order lines, and updates stock
// for each line (the classic update-heavy TPC-C transaction).
func (t *TPCC) NewOrder(rng *rand.Rand) error {
	w := int64(uniform(rng, 1, t.Warehouses))
	d := int64(uniform(rng, 1, tpccDistrictsPerWarehouse))
	cid := int64(nonUniform(rng, 1023, 1, tpccCustomersPerDistrict))
	// Stock rows are locked in item order, so two New-Orders cannot
	// deadlock on them.
	type orderLine struct{ item, qty int64 }
	lines := make([]orderLine, uniform(rng, 5, 15))
	for i := range lines {
		lines[i] = orderLine{int64(nonUniform(rng, 8191, 1, tpccItems)), int64(uniform(rng, 1, 10))}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].item < lines[j].item })

	s := t.Begin("app").Op("new_order")
	defer s.Rollback()

	dRow, ok, err := s.Get(t.district, sqlledger.BigInt(w), sqlledger.BigInt(d))
	if err != nil || !ok {
		return fmt.Errorf("workload: district (%d,%d): %v", w, d, err)
	}
	oid := dRow[3].Int()
	dRow = dRow.Clone()
	dRow[3] = sqlledger.BigInt(oid + 1)
	if err := s.Update(t.district, dRow); err != nil {
		return err
	}
	if _, ok, err := s.Get(t.customer, sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(cid)); err != nil || !ok {
		return fmt.Errorf("workload: customer (%d,%d,%d): %v", w, d, cid, err)
	}
	if err := s.Insert(t.orders, sqlledger.Row{
		sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(oid),
		sqlledger.BigInt(cid), sqlledger.DateTime(time.Now()),
		sqlledger.Null(sqlledger.TypeBigInt), sqlledger.BigInt(int64(len(lines))),
	}); err != nil {
		return err
	}
	if err := s.Insert(t.newOrder, sqlledger.Row{
		sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(oid),
	}); err != nil {
		return err
	}
	for i, line := range lines {
		item, qty := line.item, line.qty
		iRow, ok, err := s.Get(t.item, sqlledger.BigInt(item))
		if err != nil || !ok {
			return fmt.Errorf("workload: item %d: %v", item, err)
		}
		price := iRow[2].Int()
		sRow, ok, err := s.Get(t.stock, sqlledger.BigInt(w), sqlledger.BigInt(item))
		if err != nil || !ok {
			return fmt.Errorf("workload: stock (%d,%d): %v", w, item, err)
		}
		sRow = sRow.Clone()
		q := sRow[2].Int() - qty
		if q < 10 {
			q += 91
		}
		sRow[2] = sqlledger.BigInt(q)
		sRow[3] = sqlledger.BigInt(sRow[3].Int() + qty)
		sRow[4] = sqlledger.BigInt(sRow[4].Int() + 1)
		if err := s.Update(t.stock, sRow); err != nil {
			return err
		}
		if err := s.Insert(t.orderLine, sqlledger.Row{
			sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(oid), sqlledger.BigInt(int64(i + 1)),
			sqlledger.BigInt(item), sqlledger.BigInt(qty), sqlledger.BigInt(qty * price),
			sqlledger.Null(sqlledger.TypeDateTime),
		}); err != nil {
			return err
		}
	}
	return s.Commit()
}

// Payment records a customer payment: warehouse and district YTD, the
// customer's balance, and an entry in the (ledger) payment history table.
func (t *TPCC) Payment(rng *rand.Rand) error {
	w := int64(uniform(rng, 1, t.Warehouses))
	d := int64(uniform(rng, 1, tpccDistrictsPerWarehouse))
	cid := int64(nonUniform(rng, 1023, 1, tpccCustomersPerDistrict))
	amount := int64(uniform(rng, 100, 500000))

	s := t.Begin("app").Op("payment")
	defer s.Rollback()

	wRow, ok, err := s.Get(t.warehouse, sqlledger.BigInt(w))
	if err != nil || !ok {
		return fmt.Errorf("workload: warehouse %d: %v", w, err)
	}
	wRow = wRow.Clone()
	wRow[2] = sqlledger.BigInt(wRow[2].Int() + amount)
	if err := s.Update(t.warehouse, wRow); err != nil {
		return err
	}
	dRow, ok, err := s.Get(t.district, sqlledger.BigInt(w), sqlledger.BigInt(d))
	if err != nil || !ok {
		return fmt.Errorf("workload: district (%d,%d): %v", w, d, err)
	}
	dRow = dRow.Clone()
	dRow[4] = sqlledger.BigInt(dRow[4].Int() + amount)
	if err := s.Update(t.district, dRow); err != nil {
		return err
	}
	cRow, ok, err := s.Get(t.customer, sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(cid))
	if err != nil || !ok {
		return fmt.Errorf("workload: customer (%d,%d,%d): %v", w, d, cid, err)
	}
	cRow = cRow.Clone()
	cRow[4] = sqlledger.BigInt(cRow[4].Int() - amount)
	cRow[5] = sqlledger.BigInt(cRow[5].Int() + amount)
	cRow[6] = sqlledger.BigInt(cRow[6].Int() + 1)
	if err := s.Update(t.customer, cRow); err != nil {
		return err
	}
	if err := s.Insert(t.history, sqlledger.Row{
		sqlledger.BigInt(t.nextHistoryID.Add(1)),
		sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(cid),
		sqlledger.BigInt(amount), sqlledger.DateTime(time.Now()),
		sqlledger.NVarChar(fmt.Sprintf("payment w=%d d=%d c=%d", w, d, cid)),
	}); err != nil {
		return err
	}
	return s.Commit()
}

// OrderStatus reads a customer's most recent order and its lines.
func (t *TPCC) OrderStatus(rng *rand.Rand) error {
	w := int64(uniform(rng, 1, t.Warehouses))
	d := int64(uniform(rng, 1, tpccDistrictsPerWarehouse))
	cid := int64(nonUniform(rng, 1023, 1, tpccCustomersPerDistrict))

	s := t.Begin("app").Op("order_status")
	defer s.Rollback()
	if _, ok, err := s.Get(t.customer, sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(cid)); err != nil || !ok {
		return fmt.Errorf("workload: customer (%d,%d,%d): %v", w, d, cid, err)
	}
	var lastOrder int64 = -1
	if err := s.ScanPrefix(t.orders, func(r sqlledger.Row) bool {
		if r[3].Int() == cid {
			lastOrder = r[2].Int()
		}
		return true
	}, sqlledger.BigInt(w), sqlledger.BigInt(d)); err != nil {
		return err
	}
	if lastOrder >= 0 {
		if err := s.ScanPrefix(t.orderLine, func(r sqlledger.Row) bool { return true },
			sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(lastOrder)); err != nil {
			return err
		}
	}
	return s.Commit()
}

// Delivery delivers the oldest undelivered order of one district: removes
// its new_order marker, stamps the order with a carrier and the lines with
// a delivery date, and credits the customer.
func (t *TPCC) Delivery(rng *rand.Rand) error {
	w := int64(uniform(rng, 1, t.Warehouses))
	carrier := int64(uniform(rng, 1, 10))

	s := t.Begin("app").Op("delivery")
	defer s.Rollback()
	delivered := 0
	for d := int64(1); d <= tpccDistrictsPerWarehouse; d++ {
		var oid int64 = -1
		if err := s.ScanPrefix(t.newOrder, func(r sqlledger.Row) bool {
			oid = r[2].Int()
			return false // oldest = first in key order
		}, sqlledger.BigInt(w), sqlledger.BigInt(d)); err != nil {
			return err
		}
		if oid < 0 {
			continue
		}
		if err := s.Delete(t.newOrder, sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(oid)); err != nil {
			return err
		}
		oRow, ok, err := s.Get(t.orders, sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(oid))
		if err != nil || !ok {
			return fmt.Errorf("workload: order (%d,%d,%d): %v", w, d, oid, err)
		}
		oRow = oRow.Clone()
		oRow[5] = sqlledger.BigInt(carrier)
		if err := s.Update(t.orders, oRow); err != nil {
			return err
		}
		cid := oRow[3].Int()
		var lines []sqlledger.Row
		var total int64
		if err := s.ScanPrefix(t.orderLine, func(r sqlledger.Row) bool {
			lines = append(lines, r.Clone())
			total += r[6].Int()
			return true
		}, sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(oid)); err != nil {
			return err
		}
		now := sqlledger.DateTime(time.Now())
		for _, ln := range lines {
			ln[7] = now
			if err := s.Update(t.orderLine, ln); err != nil {
				return err
			}
		}
		cRow, ok, err := s.Get(t.customer, sqlledger.BigInt(w), sqlledger.BigInt(d), sqlledger.BigInt(cid))
		if err != nil || !ok {
			return fmt.Errorf("workload: customer (%d,%d,%d): %v", w, d, cid, err)
		}
		cRow = cRow.Clone()
		cRow[4] = sqlledger.BigInt(cRow[4].Int() + total)
		if err := s.Update(t.customer, cRow); err != nil {
			return err
		}
		delivered++
	}
	if delivered == 0 {
		return s.Commit() // nothing pending anywhere: a cheap no-op
	}
	return s.Commit()
}

// StockLevel counts recently sold items below a stock threshold.
func (t *TPCC) StockLevel(rng *rand.Rand) error {
	w := int64(uniform(rng, 1, t.Warehouses))
	d := int64(uniform(rng, 1, tpccDistrictsPerWarehouse))
	threshold := int64(uniform(rng, 10, 20))

	s := t.Begin("app").Op("stock_level")
	defer s.Rollback()
	items := make(map[int64]bool)
	count := 0
	if err := s.ScanPrefix(t.orderLine, func(r sqlledger.Row) bool {
		items[r[4].Int()] = true
		count++
		return count < 200 // bounded like the spec's "last 20 orders"
	}, sqlledger.BigInt(w), sqlledger.BigInt(d)); err != nil {
		return err
	}
	low := 0
	for item := range items {
		sRow, ok, err := s.Get(t.stock, sqlledger.BigInt(w), sqlledger.BigInt(item))
		if err != nil {
			return err
		}
		if ok && sRow[2].Int() < threshold {
			low++
		}
	}
	return s.Commit()
}

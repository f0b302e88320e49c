package main

import (
	"fmt"
	"sort"

	"sqlledger"
)

// The tpce workload: a TPC-E-like brokerage mix (§4.1.1), read-heavy
// (about 77% of transactions only read). All 33 tables are ledger
// tables on the ledger twin, as in the paper: ten carry the mix, the
// other 23 are reference tables created and loaded for completeness.
// As in tpcc, ids come from the generator; each client trades on its
// own share of the customer accounts, so a Trade-Result never races
// another client's insert of the same holding.
const (
	tpceCustomers    = 200
	tpceSecurities   = 100
	tpceBrokers      = 10
	tpceBlockSize    = 10_000
	tpceOpsPerSecond = 1100
)

var tpceReferenceTables = []string{
	"tpce_account_permission", "tpce_address", "tpce_charge",
	"tpce_commission_rate", "tpce_company", "tpce_company_competitor",
	"tpce_customer_taxrate", "tpce_daily_market", "tpce_exchange",
	"tpce_financial", "tpce_holding", "tpce_holding_history",
	"tpce_industry", "tpce_news_item", "tpce_news_xref", "tpce_sector",
	"tpce_status_type", "tpce_taxrate", "tpce_trade_request",
	"tpce_trade_type", "tpce_watch_item", "tpce_watch_list",
	"tpce_zip_code",
}

type tpceTables struct {
	customer, account, broker, security, lastTrade      *table
	trade, tradeHistory, settlement, cashTx, holdingSum *table
	reference                                           []*table
}

func tpceSchema(st *store) (*tpceTables, error) {
	var t tpceTables
	var err error
	mk := func(name string, cols []sqlledger.Column, key ...string) *table {
		if err != nil {
			return nil
		}
		var tb *table
		tb, err = st.create(name, sqlledger.MustSchema(cols, key...), true, sqlledger.Updateable)
		return tb
	}
	big, str, ts, bit := sqlledger.TypeBigInt, sqlledger.TypeNVarChar, sqlledger.TypeDateTime, sqlledger.TypeBit
	col := sqlledger.Col
	t.customer = mk("tpce_customer", []sqlledger.Column{col("c_id", big), col("c_name", str), col("c_tier", big)}, "c_id")
	t.account = mk("tpce_customer_account", []sqlledger.Column{
		col("ca_id", big), col("ca_c_id", big), col("ca_bal", big), col("ca_name", str)}, "ca_id")
	t.broker = mk("tpce_broker", []sqlledger.Column{
		col("b_id", big), col("b_name", str), col("b_num_trades", big), col("b_comm_total", big)}, "b_id")
	t.security = mk("tpce_security", []sqlledger.Column{col("s_symb", str), col("s_name", str), col("s_ex", str)}, "s_symb")
	t.lastTrade = mk("tpce_last_trade", []sqlledger.Column{
		col("lt_s_symb", str), col("lt_price", big), col("lt_vol", big), col("lt_dts", ts)}, "lt_s_symb")
	t.trade = mk("tpce_trade", []sqlledger.Column{
		col("t_id", big), col("t_ca_id", big), col("t_s_symb", str), col("t_qty", big),
		col("t_price", big), col("t_status", str), col("t_dts", ts), col("t_is_buy", bit)}, "t_id")
	t.tradeHistory = mk("tpce_trade_history", []sqlledger.Column{
		col("th_t_id", big), col("th_seq", big), col("th_status", str), col("th_dts", ts)}, "th_t_id", "th_seq")
	t.settlement = mk("tpce_settlement", []sqlledger.Column{
		col("se_t_id", big), col("se_amt", big), col("se_cash_due", ts)}, "se_t_id")
	t.cashTx = mk("tpce_cash_transaction", []sqlledger.Column{
		col("ct_t_id", big), col("ct_amt", big), col("ct_dts", ts), col("ct_name", str)}, "ct_t_id")
	t.holdingSum = mk("tpce_holding_summary", []sqlledger.Column{
		col("hs_ca_id", big), col("hs_s_symb", str), col("hs_qty", big)}, "hs_ca_id", "hs_s_symb")
	for _, name := range tpceReferenceTables {
		t.reference = append(t.reference, mk(name, []sqlledger.Column{col("id", big), col("data", str)}, "id"))
	}
	return &t, err
}

func symb(i int64) sqlledger.Value { return sqlledger.NVarChar(fmt.Sprintf("SYM%04d", i)) }

func tpceLoad(c *client, t *tpceTables) error {
	g := c.g
	batch := c.load
	var cust, acct, brok, sec, last []sqlledger.Row
	for i := int64(1); i <= tpceCustomers; i++ {
		cust = append(cust, sqlledger.Row{bigint(i), sqlledger.NVarChar(fmt.Sprintf("customer-%d", i)), bigint(g.uniform(1, 3))})
		acct = append(acct, sqlledger.Row{bigint(i), bigint(i), bigint(1_000_000),
			sqlledger.NVarChar(fmt.Sprintf("account-%d %s", i, g.filler(20)))})
	}
	for i := int64(1); i <= tpceBrokers; i++ {
		brok = append(brok, sqlledger.Row{bigint(i), sqlledger.NVarChar(fmt.Sprintf("broker-%d", i)), bigint(0), bigint(0)})
	}
	for i := int64(1); i <= tpceSecurities; i++ {
		sec = append(sec, sqlledger.Row{symb(i), sqlledger.NVarChar(fmt.Sprintf("security-%d %s", i, g.filler(16))), sqlledger.NVarChar("NYSE")})
		last = append(last, sqlledger.Row{symb(i), bigint(g.uniform(1000, 100000)), bigint(0), g.now()})
	}
	for _, l := range []struct {
		tb   *table
		rows []sqlledger.Row
	}{{t.customer, cust}, {t.account, acct}, {t.broker, brok}, {t.security, sec}, {t.lastTrade, last}} {
		if err := batch(l.tb, l.rows); err != nil {
			return err
		}
	}
	for _, tb := range t.reference {
		rows := make([]sqlledger.Row, 0, 20)
		for i := int64(1); i <= 20; i++ {
			rows = append(rows, sqlledger.Row{bigint(i), sqlledger.NVarChar(g.filler(40))})
		}
		if err := batch(tb, rows); err != nil {
			return err
		}
	}
	return nil
}

// tpceClient is one brokerage client's generator-side state.
type tpceClient struct {
	t      *tpceTables
	id, n  int
	trades int64   // trades this client has ordered
	open   []int64 // ordered, not yet settled
}

// ownAccount draws one of the accounts this client trades on: account a
// belongs to client (a-1) mod n.
func (tc *tpceClient) ownAccount(g *gen) int64 {
	per := tpceCustomers / tc.n
	return g.uniform(0, per-1)*int64(tc.n) + int64(tc.id) + 1
}

// op runs one transaction of the mix: Trade-Order 10%, Trade-Result 10%,
// Market-Feed 3%, and 77% spread over the read-only Trade-Status,
// Customer-Position, Market-Watch and Security-Detail.
func (tc *tpceClient) op(c *client) opResult {
	t0 := c.start()
	g := c.g
	x := g.uniform(0, 99)
	var err error
	switch {
	case x < 10, x < 20 && len(tc.open) == 0:
		tc.trades++
		tid := tc.trades*int64(tc.n) + int64(tc.id)
		ca, sym, qty, buy, now := tc.ownAccount(g), g.uniform(1, tpceSecurities), g.uniform(10, 500), g.uniform(0, 1) == 0, g.now()
		c.done(kindGen, t0, nil, 0)
		if err = tc.tradeOrder(c, tid, ca, sym, qty, buy, now); err == nil {
			tc.open = append(tc.open, tid)
		}
	case x < 20:
		tid, now := tc.open[0], g.now()
		tc.open = tc.open[1:]
		c.done(kindGen, t0, nil, 0)
		err = tc.tradeResult(c, tid, now)
	case x < 23:
		var syms [5]int64
		var ticks [5]int64
		for i := range syms {
			syms[i], ticks[i] = g.uniform(1, tpceSecurities), g.uniform(-50, 50)
		}
		// Rows are locked in symbol order, so two feeds cannot deadlock.
		sort.Slice(syms[:], func(i, j int) bool { return syms[i] < syms[j] })
		now := g.now()
		c.done(kindGen, t0, nil, 0)
		err = tc.marketFeed(c, syms, ticks, now)
	case x < 42:
		ca := g.uniform(1, tpceCustomers)
		var tid int64
		if tc.trades > 0 {
			tid = g.uniform(1, int(tc.trades))*int64(tc.n) + int64(tc.id)
		}
		c.done(kindGen, t0, nil, 0)
		err = tc.tradeStatus(c, ca, tid)
	case x < 61:
		ca := g.uniform(1, tpceCustomers)
		c.done(kindGen, t0, nil, 0)
		err = tc.customerPosition(c, ca)
	case x < 80:
		var syms [10]int64
		for i := range syms {
			syms[i] = g.uniform(1, tpceSecurities)
		}
		c.done(kindGen, t0, nil, 0)
		err = tc.marketWatch(c, syms)
	default:
		sym := g.uniform(1, tpceSecurities)
		c.done(kindGen, t0, nil, 0)
		err = tc.securityDetail(c, sym)
	}
	if err != nil {
		c.abort()
		return opResult{err: err}
	}
	return opResult{work: 1}
}

func (tc *tpceClient) tradeOrder(c *client, tid, ca, sym, qty int64, buy bool, now sqlledger.Value) error {
	t := tc.t
	c.begin("app")
	lt, err := c.get(t.lastTrade, symb(sym))
	if err != nil {
		return err
	}
	if err := c.insert(t.trade, sqlledger.Row{bigint(tid), bigint(ca), symb(sym), bigint(qty), lt[1],
		sqlledger.NVarChar("SBMT"), now, sqlledger.Bit(buy)}); err != nil {
		return err
	}
	if err := c.insert(t.tradeHistory, sqlledger.Row{bigint(tid), bigint(1), sqlledger.NVarChar("SBMT"), now}); err != nil {
		return err
	}
	return c.commit()
}

func (tc *tpceClient) tradeResult(c *client, tid int64, now sqlledger.Value) error {
	t := tc.t
	c.begin("app")
	tr, err := c.get(t.trade, bigint(tid))
	if err != nil {
		return err
	}
	tr = tr.Clone()
	tr[5] = sqlledger.NVarChar("CMPT")
	if err := c.update(t.trade, tr); err != nil {
		return err
	}
	if err := c.insert(t.tradeHistory, sqlledger.Row{bigint(tid), bigint(2), sqlledger.NVarChar("CMPT"), now}); err != nil {
		return err
	}
	ca, qty, price, buy := tr[1], tr[3].Int(), tr[4].Int(), tr[7].Bool()
	amt, delta := qty*price, qty
	if buy {
		amt = -amt
	} else {
		delta = -qty
	}
	acct, err := c.get(t.account, ca)
	if err != nil {
		return err
	}
	acct = acct.Clone()
	acct[2] = bigint(acct[2].Int() + amt)
	if err := c.update(t.account, acct); err != nil {
		return err
	}
	hs, ok, err := c.lookup(t.holdingSum, ca, tr[2])
	if err != nil {
		return err
	}
	if ok {
		hs = hs.Clone()
		hs[2] = bigint(hs[2].Int() + delta)
		err = c.update(t.holdingSum, hs)
	} else {
		err = c.insert(t.holdingSum, sqlledger.Row{ca, tr[2], bigint(delta)})
	}
	if err != nil {
		return err
	}
	if err := c.insert(t.settlement, sqlledger.Row{bigint(tid), bigint(amt), now}); err != nil {
		return err
	}
	if err := c.insert(t.cashTx, sqlledger.Row{bigint(tid), bigint(amt), now,
		sqlledger.NVarChar(fmt.Sprintf("settle trade %d", tid))}); err != nil {
		return err
	}
	return c.commit()
}

func (tc *tpceClient) marketFeed(c *client, syms, ticks [5]int64, now sqlledger.Value) error {
	c.begin("feed")
	for i, s := range syms {
		r, err := c.get(tc.t.lastTrade, symb(s))
		if err != nil {
			return err
		}
		r = r.Clone()
		r[1], r[2], r[3] = bigint(r[1].Int()+ticks[i]), bigint(r[2].Int()+100), now
		if err := c.update(tc.t.lastTrade, r); err != nil {
			return err
		}
	}
	return c.commit()
}

func (tc *tpceClient) tradeStatus(c *client, ca, tid int64) error {
	c.begin("app")
	if tid > 0 {
		if _, err := c.scan(tc.t.tradeHistory, func(sqlledger.Row) bool { return true }, bigint(tid)); err != nil {
			return err
		}
	}
	if _, err := c.get(tc.t.account, bigint(ca)); err != nil {
		return err
	}
	return c.commit()
}

func (tc *tpceClient) customerPosition(c *client, ca int64) error {
	c.begin("app")
	if _, err := c.get(tc.t.customer, bigint(ca)); err != nil {
		return err
	}
	if _, err := c.get(tc.t.account, bigint(ca)); err != nil {
		return err
	}
	if _, err := c.scan(tc.t.holdingSum, func(sqlledger.Row) bool { return true }, bigint(ca)); err != nil {
		return err
	}
	return c.commit()
}

func (tc *tpceClient) marketWatch(c *client, syms [10]int64) error {
	c.begin("app")
	for _, s := range syms {
		if _, err := c.get(tc.t.lastTrade, symb(s)); err != nil {
			return err
		}
	}
	return c.commit()
}

func (tc *tpceClient) securityDetail(c *client, sym int64) error {
	c.begin("app")
	if _, err := c.get(tc.t.security, symb(sym)); err != nil {
		return err
	}
	if _, err := c.get(tc.t.lastTrade, symb(sym)); err != nil {
		return err
	}
	return c.commit()
}

var tpceWorkload = workload{
	name: "tpce",
	why:  "TPC-E-like, all 33 tables ledger, 77% read-only transactions: mostly Tx.Get/ScanPrefix, which should cost the same on ledger and regular tables, so Begin/Commit cost and the read path show here",
	setup: func(e *env) (*run, error) {
		return setupTwins(e, twinSpec{
			workload: "tpce", clients: 2, workUnit: "tx",
			opts:        storeOptions{blockSize: tpceBlockSize},
			opsPerRound: e.cfg.ops(tpceOpsPerSecond, 40),
			spansPerOp:  16,
			load: func(c *client) (any, error) {
				t, err := tpceSchema(c.st)
				if err != nil {
					return nil, err
				}
				return t, tpceLoad(c, t)
			},
			client: func(state any, id, n int) func(*client) opResult {
				tc := &tpceClient{t: state.(*tpceTables), id: id, n: n}
				return tc.op
			},
			// The trade row: inserted by Trade-Order, rewritten by Trade-Result.
			kernel: func(any) kernelParams {
				big, str, col := sqlledger.TypeBigInt, sqlledger.TypeNVarChar, sqlledger.Col
				return kernelParams{
					schema: sqlledger.MustSchema([]sqlledger.Column{
						col("t_id", big), col("t_ca_id", big), col("t_s_symb", str), col("t_qty", big), col("t_price", big),
						col("t_status", str), col("t_dts", sqlledger.TypeDateTime), col("t_is_buy", sqlledger.TypeBit)}, "t_id"),
					row: func(g *gen, i int64) sqlledger.Row {
						return sqlledger.Row{bigint(i), bigint(g.uniform(1, tpceCustomers)), symb(g.uniform(1, tpceSecurities)),
							bigint(g.uniform(10, 500)), bigint(g.uniform(1000, 100000)), sqlledger.NVarChar("SBMT"), g.now(), sqlledger.Bit(i%2 == 0)}
					},
					leavesPerTx: 2, blockSize: tpceBlockSize, tableRows: 20_000,
				}
			},
		})
	},
}

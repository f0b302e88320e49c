package main

import (
	"crypto/ed25519"
	"fmt"

	"sqlledger"
)

// The snapread workload: snapshot (MVCC) reads with writers beside
// them. One ledger table keyed (grp, id), snapGroupRows rows per group,
// every row updated twice before the measured phase. Each client runs
// 90% read-only snapshot transactions (ten point Gets and one whole-group
// ScanPrefix) and 10% three-row update transactions; every
// snapReceiptEvery-th read transaction collects a read receipt and
// checks it offline. On this engine one receipt costs about two thousand
// plain read transactions (it rebuilds the Merkle tree of every
// transaction that created a returned row by scanning the table), so at
// the issue's one in a hundred the workload would measure nothing else;
// at one in five thousand receipts stay what they are meant to be here,
// a tail event.
const (
	snapRowsFull     = 20_000 // at -scale 1; README.md says why not the issue's 100k
	snapGroupRows    = 20
	snapPayloadBytes = 100
	snapGetsPerTx    = 10
	snapReceiptEvery = 5000 // at -scale 1
	snapBlockSize    = 10_000
	snapOpsPerSecond = 750
)

type snapState struct {
	t            *table
	groups       int
	receiptEvery int
	priv         ed25519.PrivateKey
}

func snapSchema() *sqlledger.Schema {
	big := sqlledger.TypeBigInt
	return sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("grp", big), sqlledger.Col("id", big), sqlledger.Col("ver", big),
		sqlledger.Col("payload", sqlledger.TypeVarChar)}, "grp", "id")
}

func snapRow(g *gen, grp, id, ver int64) sqlledger.Row {
	return sqlledger.Row{bigint(grp), bigint(id), bigint(ver), sqlledger.VarChar(g.filler(snapPayloadBytes))}
}

func snapLoad(c *client, groups, receiptEvery int) (*snapState, error) {
	t, err := c.st.create("snap_rows", snapSchema(), true, sqlledger.Updateable)
	if err != nil {
		return nil, err
	}
	g := c.g
	var seed [ed25519.SeedSize]byte
	for i := range seed {
		seed[i] = byte(g.uniform(0, 255))
	}
	s := &snapState{t: t, groups: groups, receiptEvery: receiptEvery, priv: ed25519.NewKeyFromSeed(seed[:])}
	const groupsPerBatch = 50
	for lo := 0; lo < groups; lo += groupsPerBatch {
		var rows []sqlledger.Row
		for grp := lo; grp < lo+groupsPerBatch && grp < groups; grp++ {
			for id := 0; id < snapGroupRows; id++ {
				rows = append(rows, snapRow(g, int64(grp), int64(id), 0))
			}
		}
		if err := c.load(t, rows); err != nil {
			return nil, err
		}
	}
	for ver := int64(1); ver <= 2; ver++ {
		for grp := 0; grp < groups; grp++ {
			c.begin("loader")
			for id := 0; id < snapGroupRows; id++ {
				if err := c.update(t, snapRow(g, int64(grp), int64(id), ver)); err != nil {
					c.abort()
					return nil, err
				}
			}
			if err := c.commit(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

type snapClient struct {
	s     *snapState
	reads int
}

func (sc *snapClient) op(c *client) opResult {
	t0 := c.start()
	g, s := c.g, sc.s
	if g.uniform(0, 99) < 90 {
		var keys [snapGetsPerTx][2]int64
		for i := range keys {
			keys[i] = [2]int64{g.uniform(0, s.groups-1), g.uniform(0, snapGroupRows-1)}
		}
		scanGrp := g.uniform(0, s.groups-1)
		sc.reads++
		receipt := sc.reads%s.receiptEvery == 0
		c.done(kindGen, t0, nil, 0)
		return opResult{work: 1, err: sc.read(c, keys, scanGrp, receipt)}
	}
	grp := g.uniform(0, s.groups-1)
	first := g.uniform(0, snapGroupRows-3)
	var rows [3]sqlledger.Row
	for i := range rows {
		rows[i] = snapRow(g, grp, first+int64(i), 0)
	}
	c.done(kindGen, t0, nil, 0)
	// Rows of a group are updated in id order, so two writers on one
	// group wait for each other instead of deadlocking.
	c.begin("app")
	for _, r := range rows {
		old, err := c.get(s.t, r[0], r[1])
		if err != nil {
			c.abort()
			return opResult{err: err}
		}
		r[2] = bigint(old[2].Int() + 1)
		if err := c.update(s.t, r); err != nil {
			c.abort()
			return opResult{err: err}
		}
	}
	return opResult{work: 1, err: c.commit()}
}

func (sc *snapClient) read(c *client, keys [snapGetsPerTx][2]int64, scanGrp int64, receipt bool) error {
	c.snapBegin(receipt)
	for _, k := range keys {
		if _, err := c.snapGet(sc.s.t, bigint(k[0]), bigint(k[1])); err != nil {
			c.snapClose()
			return err
		}
	}
	n, err := c.snapScan(sc.s.t, bigint(scanGrp))
	if err == nil && n != snapGroupRows {
		err = fmt.Errorf("snapshot scan of group %d saw %d rows, want %d", scanGrp, n, snapGroupRows)
	}
	if err != nil {
		c.snapClose()
		return err
	}
	if receipt {
		return c.snapCloseWithReceipt(sc.s.priv)
	}
	c.snapClose()
	return nil
}

var snapreadWorkload = workload{
	name: "snapread",
	why:  "90% snapshot reads (10 Gets + a 20-row ScanPrefix) beside 10% 3-row updates, 1 read in 5000 with a verified read receipt: the MVCC read path next to writers; hashing idle except in receipts",
	setup: func(e *env) (*run, error) {
		groups := e.cfg.rows(snapRowsFull, 4*snapGroupRows) / snapGroupRows
		receiptEvery := e.cfg.rows(snapReceiptEvery, 50)
		r, err := setupTwins(e, twinSpec{
			workload: "snapread", clients: 2, workUnit: "tx",
			opts:        storeOptions{blockSize: snapBlockSize},
			opsPerRound: e.cfg.ops(snapOpsPerSecond, 200),
			spansPerOp:  16,
			load:        func(c *client) (any, error) { return snapLoad(c, groups, receiptEvery) },
			client: func(state any, id, n int) func(*client) opResult {
				sc := &snapClient{s: state.(*snapState)}
				return sc.op
			},
			kernel: func(state any) kernelParams {
				return kernelParams{
					schema:      snapSchema(),
					row:         func(g *gen, i int64) sqlledger.Row { return snapRow(g, i/snapGroupRows, i%snapGroupRows, 0) },
					leavesPerTx: 6, blockSize: snapBlockSize, tableRows: state.(*snapState).groups * snapGroupRows,
				}
			},
		})
		if err == nil {
			r.counts["rows"], r.counts["receipt_every"] = groups*snapGroupRows, receiptEvery
		}
		return r, err
	},
}

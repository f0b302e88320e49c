package main

import (
	"sqlledger"
)

// The ingest workload: one loader appends 260-byte rows (the schema of
// the paper's Figure 8, with one nonclustered index) in 1000-row
// transactions through Tx.InsertBatch. Per-row cost is nearly all of
// it; per-commit cost, locks and block close nearly nothing.
const (
	ingestBatchRows       = 1000
	ingestBlockSize       = 10_000
	ingestBatchesPerRound = 4   // per second of -seconds
	wideFillerBytes       = 210 // 4 BIGINTs + 210 bytes of text = 242 value bytes, ~260 serialized
)

// wideSchema is the Figure 8 row: a key, three integers, text filler.
func wideSchema() *sqlledger.Schema {
	big := sqlledger.TypeBigInt
	return sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", big), sqlledger.Col("a", big), sqlledger.Col("b", big),
		sqlledger.Col("c", big), sqlledger.Col("filler", sqlledger.TypeVarChar),
	}, "id")
}

// wideRow draws a row for key id.
func wideRow(g *gen, id int64) sqlledger.Row {
	return sqlledger.Row{bigint(id), bigint(g.uniform(0, 1<<30)), bigint(id * 7), bigint(id * 11),
		sqlledger.VarChar(g.filler(wideFillerBytes))}
}

type ingestClient struct {
	t    *table
	next int64
	rows []sqlledger.Row
}

func (ic *ingestClient) op(c *client) opResult {
	t0 := c.start()
	ic.rows = ic.rows[:0]
	for i := 0; i < ingestBatchRows; i++ {
		ic.next++
		ic.rows = append(ic.rows, wideRow(c.g, ic.next))
	}
	c.done(kindGen, t0, nil, 0)
	c.begin("loader")
	if err := c.insertBatch(ic.t, ic.rows); err != nil {
		c.abort()
		return opResult{err: err}
	}
	if err := c.commit(); err != nil {
		return opResult{err: err}
	}
	return opResult{work: ingestBatchRows}
}

var ingestWorkload = workload{
	name: "ingest",
	why:  "one loader, 260-byte rows, one index, 1000-row InsertBatch transactions: per-row cost (serialize, SHA-256, Merkle, B-tree put, WAL encode) is everything, per-commit cost nothing - tpcc's inverse",
	setup: func(e *env) (*run, error) {
		return setupTwins(e, twinSpec{
			workload: "ingest", clients: 1, workUnit: "rows",
			opts:        storeOptions{blockSize: ingestBlockSize},
			opsPerRound: e.cfg.ops(ingestBatchesPerRound, 2),
			spansPerOp:  4,
			load: func(c *client) (any, error) {
				t, err := c.st.create("ingest_rows", wideSchema(), true, sqlledger.Updateable)
				if err != nil {
					return nil, err
				}
				return t, c.st.index(t, "a")
			},
			client: func(state any, id, n int) func(*client) opResult {
				ic := &ingestClient{t: state.(*table), rows: make([]sqlledger.Row, 0, ingestBatchRows)}
				return ic.op
			},
			kernel: func(any) kernelParams {
				return kernelParams{schema: wideSchema(), row: wideRow, leavesPerTx: ingestBatchRows,
					blockSize: ingestBlockSize, tableRows: 200_000}
			},
		})
	},
}

package workload

import (
	"sync/atomic"

	"sqlledger"
)

// Bulk ingest: the loader of the ingest- and shard-scaling experiments.
// It loads a deterministic row set into one ledger table of a database
// with any number of shards, two ways — serially, where the commit
// sequence (and so every digest) is byte-reproducible under a logical
// clock, and with a client pool of transactions that each touch one
// shard, which is the multi-core ingest path shards exist for.

// IngestSchema is the experiments' table: a bigint key plus a payload
// padding rows to ~260 bytes (the paper's latency-experiment row width).
func IngestSchema() *sqlledger.Schema {
	return sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt),
		sqlledger.Col("a", sqlledger.TypeBigInt),
		sqlledger.Col("b", sqlledger.TypeBigInt),
		sqlledger.Col("payload", sqlledger.TypeVarChar),
	}, "id")
}

// IngestRow builds the deterministic ~260-byte row for id.
func IngestRow(id int64) sqlledger.Row {
	payload := make([]byte, 220)
	for i := range payload {
		payload[i] = byte('a' + (id+int64(i))%26)
	}
	return sqlledger.Row{
		sqlledger.BigInt(id), sqlledger.BigInt(id * 3), sqlledger.BigInt(id * 7),
		sqlledger.VarChar(string(payload)),
	}
}

// Ingest bulk-loads IngestRows into one ledger table.
type Ingest struct {
	DB    *sqlledger.DB
	Table *sqlledger.LedgerTable
}

// NewIngest creates the experiment table.
func NewIngest(db *sqlledger.DB, table string) (*Ingest, error) {
	lt, err := db.CreateLedgerTable(table, IngestSchema(), sqlledger.Updateable)
	if err != nil {
		return nil, err
	}
	return &Ingest{DB: db, Table: lt}, nil
}

// insert commits rows as one transaction, hashing them on workers
// goroutines (0 = one per CPU).
func (l *Ingest) insert(rows []sqlledger.Row, workers int) error {
	tx := l.DB.Begin("load")
	if err := tx.InsertBatchParallel(l.Table, rows, workers); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// LoadSerial inserts ids [lo, hi) in order, batch rows per transaction, on
// the calling goroutine, hashing each batch on workers goroutines. On a
// multi-shard database a batch spans shards and commits through 2PC; the
// single-threaded schedule makes digests and super-roots byte-identical
// across runs under a logical clock.
func (l *Ingest) LoadSerial(lo, hi, batch, workers int) error {
	rows := make([]sqlledger.Row, 0, batch)
	for base := lo; base < hi; base += batch {
		rows = rows[:0]
		for id := base; id < base+batch && id < hi; id++ {
			rows = append(rows, IngestRow(int64(id)))
		}
		if err := l.insert(rows, workers); err != nil {
			return err
		}
	}
	return nil
}

// LoadParallel cuts ids [lo, hi) into batches of at most batch rows that
// each live on one shard and drives them through a pool of clients
// goroutines, one single-shard (no-2PC) transaction per batch. Row hashing
// stays serial inside each transaction, so measured speedups isolate shard
// parallelism from batch-hashing parallelism.
func (l *Ingest) LoadParallel(lo, hi, batch, clients int) error {
	perShard := make([][]sqlledger.Row, l.DB.NumShards())
	for id := lo; id < hi; id++ {
		row := IngestRow(int64(id))
		s := l.Table.ShardOf(row[0])
		perShard[s] = append(perShard[s], row)
	}
	var jobs [][]sqlledger.Row
	for _, rows := range perShard {
		for lo := 0; lo < len(rows); lo += batch {
			jobs = append(jobs, rows[lo:min(lo+batch, len(rows))])
		}
	}
	var next atomic.Int64
	return DriveN(clients, len(jobs), func(int) func() error {
		return func() error { return l.insert(jobs[next.Add(1)-1], 1) }
	}).Err
}

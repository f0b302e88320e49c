package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"sqlledger"
)

// ReadMostly is the read-path workload behind the read-scaling experiment:
// a preloaded keyed ledger table, reader clients that run MVCC snapshot
// read transactions (point Gets at random keys), and writer clients that
// keep the 2PL write path busy with single-row updates. Readers never
// touch the lock table, so rows-read/s should scale near-linearly with
// reader count while writers run undisturbed.
type ReadMostly struct {
	DB   *sqlledger.DB
	LT   *sqlledger.LedgerTable
	Rows int

	// RowsRead counts rows returned by reader transactions across all
	// clients (the experiment's primary metric).
	RowsRead atomic.Int64
}

// ReadsPerTx is how many point reads one reader transaction performs.
const ReadsPerTx = 16

func readMostlySchema() *sqlledger.Schema {
	return sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt),
		sqlledger.Col("version", sqlledger.TypeBigInt),
		sqlledger.Col("payload", sqlledger.TypeVarChar),
	}, "id")
}

func readMostlyRow(id, version int64) sqlledger.Row {
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte('a' + (id+version+int64(i))%26)
	}
	return sqlledger.Row{
		sqlledger.BigInt(id), sqlledger.BigInt(version), sqlledger.VarChar(string(payload)),
	}
}

// NewReadMostly creates the workload table and preloads rows keyed
// 0..rows-1 through the bulk ingest path.
func NewReadMostly(db *sqlledger.DB, rows int) (*ReadMostly, error) {
	lt, err := db.CreateLedgerTable("readmostly", readMostlySchema(), sqlledger.Updateable)
	if err != nil {
		return nil, err
	}
	const perTx = 1000
	for lo := 0; lo < rows; lo += perTx {
		hi := lo + perTx
		if hi > rows {
			hi = rows
		}
		batch := make([]sqlledger.Row, 0, hi-lo)
		for id := lo; id < hi; id++ {
			batch = append(batch, readMostlyRow(int64(id), 0))
		}
		tx := db.Begin("load")
		if err := tx.InsertBatch(lt, batch); err != nil {
			tx.Rollback()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return &ReadMostly{DB: db, LT: lt, Rows: rows}, nil
}

// Reader returns a client op running one snapshot read transaction of
// ReadsPerTx random point reads. Suitable for DriveN.
func (w *ReadMostly) Reader(seed int64) func() error {
	rng := rand.New(rand.NewSource(seed))
	return func() error {
		rtx := w.DB.BeginReadOnly()
		defer rtx.Close()
		for i := 0; i < ReadsPerTx; i++ {
			id := int64(rng.Intn(w.Rows))
			_, ok, err := rtx.Get(w.LT, sqlledger.BigInt(id))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("workload: row %d missing from snapshot", id)
			}
		}
		w.RowsRead.Add(ReadsPerTx)
		return nil
	}
}

// Writer returns a client op running one single-row update transaction at
// a random key, keeping row-version churn and 2PL lock traffic realistic
// while readers run.
func (w *ReadMostly) Writer(seed int64) func() error {
	rng := rand.New(rand.NewSource(seed))
	version := int64(0)
	return func() error {
		version++
		id := int64(rng.Intn(w.Rows))
		tx := w.DB.Begin("writer")
		if err := tx.Update(w.LT, readMostlyRow(id, version)); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	}
}

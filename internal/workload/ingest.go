package workload

import "sqlledger"

// Bulk ingest: the deterministic row set of the ingest-scaling
// experiments.

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

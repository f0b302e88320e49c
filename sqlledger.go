// Package sqlledger is a from-scratch Go reproduction of "SQL Ledger:
// Cryptographically Verifiable Data in Azure SQL Database" (Antonopoulos
// et al., SIGMOD 2021): an embedded relational database whose *ledger
// tables* make data tamper-evident.
//
// Every DML operation on a ledger table is SHA-256 hashed into a
// per-transaction Merkle tree; transaction entries are chained into
// blocks forming the database ledger; compact *digests* of the ledger can
// be exported to trusted storage and later used to cryptographically
// verify that nothing — not even a DBA or an attacker writing directly to
// storage — has modified the data (forward integrity).
//
// Quickstart:
//
//	db, _ := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "bank"})
//	defer db.Close()
//
//	schema := sqlledger.MustSchema([]sqlledger.Column{
//		sqlledger.Col("name", sqlledger.TypeNVarChar),
//		sqlledger.Col("balance", sqlledger.TypeBigInt),
//	}, "name")
//	accounts, _ := db.CreateLedgerTable("accounts", schema, sqlledger.Updateable)
//
//	tx := db.Begin("alice")
//	tx.Insert(accounts, sqlledger.Row{sqlledger.NVarChar("nick"), sqlledger.BigInt(100)})
//	tx.Commit()
//
//	digest, _ := db.GenerateDigest() // store this somewhere trusted
//	report, _ := db.Verify([]sqlledger.Digest{digest}, sqlledger.VerifyOptions{})
//	fmt.Println(report.Ok())
//
// The heavy lifting lives in the internal packages: internal/core (the
// ledger), internal/engine (the relational engine), internal/merkle,
// internal/serial, internal/wal, internal/blobstore. This package is the
// stable facade that examples, tools and benchmarks build on.
package sqlledger

import (
	"time"

	"sqlledger/internal/blobstore"
	"sqlledger/internal/core"
	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sql"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// Core types, re-exported.
type (
	// DB is a database with SQL Ledger enabled: one engine, one WAL and
	// one chain of blocks.
	DB = core.DB
	// Tx is a ledger-aware transaction. A row returned by Get is the
	// caller's to keep and edit; a row passed to a Scan callback is valid
	// only during the callback (Clone it to keep it) — on ledger and
	// regular tables alike. A row handed to Insert or Update is encoded
	// before the call returns and may be reused at once.
	Tx = core.Tx
	// ReadTx is a ledger-aware snapshot read transaction: reads never take
	// row locks and see a consistent applied-commit cut. Begun via
	// BeginReadOnlyForReceipt, it additionally accumulates a read set
	// that CloseWithReceipt turns into a verifiable ReadReceipt.
	ReadTx = core.ReadTx
	// ReadReceipt proves offline that every row a snapshot read returned
	// is committed ledger content.
	ReadReceipt = core.ReadReceipt
	// LedgerTable is a handle to a ledger table.
	LedgerTable = core.LedgerTable
	// Digest is an exported database digest.
	Digest = core.Digest
	// Report is a verification report.
	Report = core.Report
	// Issue is one verification finding.
	Issue = core.Issue
	// VerifyOptions tunes verification.
	VerifyOptions = core.VerifyOptions
	// VerifyTiming breaks down where a verification run spent its time.
	VerifyTiming = core.Timing
	// Receipt is a non-repudiation transaction receipt.
	Receipt = core.Receipt
	// LedgerViewRow is one row of a table's ledger view.
	LedgerViewRow = core.LedgerViewRow
	// TableOperation is one CREATE/DROP entry of the metadata ledger view.
	TableOperation = core.TableOperation
	// DigestUploader periodically uploads digests to immutable storage.
	DigestUploader = core.DigestUploader
	// RepairReport summarizes a tamper-repair run (§3.7).
	RepairReport = core.RepairReport
	// RepairAction is one divergence found/fixed during repair.
	RepairAction = core.RepairAction
	// SignedDigest is a digest signed with an organization's key (§2.4).
	SignedDigest = core.SignedDigest

	// Options configures Open.
	Options = core.Options

	// MetricsRegistry collects every metric and span the database records
	// (Options.Obs). Share one registry across databases to aggregate, or
	// pass DisabledMetrics() for the metrics-off ablation path.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of every metric
	// (DB.Snapshot), with p50/p95/p99 precomputed for histograms.
	MetricsSnapshot = obs.Snapshot
	// MetricLabel is one metric dimension, e.g. {stage, apply}.
	MetricLabel = obs.Label
	// MetricsServer is a live HTTP server exposing /metrics (Prometheus
	// text), /debug/trace + /debug/events (JSON) and /debug/pprof.
	MetricsServer = obs.Server
	// Event is one structured ledger audit event (block closed, digest
	// uploaded, verification finished, …) from the registry's event log.
	Event = obs.Event
	// EventLog is the registry's bounded structured event log
	// (reg.Events()), mirrored to /debug/events.
	EventLog = obs.EventLog

	// Trace is one in-flight end-to-end trace. Every Begin creates one
	// (when tracing is on), named "tx": the engine, WAL and commit pipeline
	// contribute child spans; annotate it with application context via
	// Tx.Trace().SetAttr. Background operations (block close, digest,
	// verification, audit cycle, recovery, version GC) are root traces of
	// their own, named by the operation.
	Trace = obs.Trace
	// TraceID identifies a trace; slow_query events carry it and
	// /debug/trace?id= resolves it.
	TraceID = obs.TraceID
	// TraceRecord is a finished, retained trace: the root plus its span
	// waterfall, served at /debug/trace.
	TraceRecord = obs.TraceRecord
	// TraceSpan is one span of a finished trace.
	TraceSpan = obs.TraceSpan
	// TraceStore is the registry's tail-sampling trace retention ring
	// (reg.Traces()): slow and error traces are always kept, fast ones
	// sampled.
	TraceStore = obs.TraceStore

	// Health is the typed health status served at /healthz.
	Health = core.Health
	// HealthState is the coarse health status (healthy/degraded/unhealthy).
	HealthState = core.HealthState
	// HealthChecker aggregates the chain position, digest lag, the last
	// verification outcome and the auditor's status (DB.NewHealthChecker).
	HealthChecker = core.HealthChecker
	// LedgerDebug is the /debug/ledger snapshot (DB.DebugInfo).
	LedgerDebug = core.LedgerDebug
	// VerifyProgress is one streaming progress update from a verification
	// run (VerifyOptions.Progress).
	VerifyProgress = core.VerifyProgress
	// BlockRange restricts a Verify run to an inclusive block range
	// (VerifyOptions.Blocks).
	BlockRange = core.BlockRange

	// Auditor is the always-on background verifier (DB.NewAuditor): a
	// persisted verified-through watermark, incremental re-verification
	// of new blocks, sampling sweeps over cold history and tamper
	// localization down to block/transaction/row.
	Auditor = core.Auditor
	// AuditorOptions tunes an auditor's cycle interval and sampling.
	AuditorOptions = core.AuditorOptions
	// AuditStatus is an auditor snapshot, served at /debug/audit.
	AuditStatus = core.AuditStatus
	// TamperReport localizes a detected ledger mutation.
	TamperReport = core.TamperReport

	// Schema describes a table's columns and primary key.
	Schema = sqltypes.Schema
	// Column describes one column.
	Column = sqltypes.Column
	// Row is an ordered tuple of values.
	Row = sqltypes.Row
	// Value is a typed nullable SQL value.
	Value = sqltypes.Value
	// TypeID identifies a SQL column type.
	TypeID = sqltypes.TypeID

	// BlobStore is an immutable, append-only blob store for digests.
	BlobStore = blobstore.Store

	// SQLSession executes SQL statements against a ledger database.
	SQLSession = sql.Session
	// SQLResult is the outcome of one SQL statement.
	SQLResult = sql.Result
)

// Ledger table kinds.
const (
	// Updateable ledger tables support all DML; superseded versions move
	// to a history table.
	Updateable = engine.LedgerUpdateable
	// AppendOnly ledger tables reject updates and deletes.
	AppendOnly = engine.LedgerAppendOnly
)

// Column types.
const (
	TypeBit       = sqltypes.TypeBit
	TypeTinyInt   = sqltypes.TypeTinyInt
	TypeSmallInt  = sqltypes.TypeSmallInt
	TypeInt       = sqltypes.TypeInt
	TypeBigInt    = sqltypes.TypeBigInt
	TypeFloat     = sqltypes.TypeFloat
	TypeDecimal   = sqltypes.TypeDecimal
	TypeChar      = sqltypes.TypeChar
	TypeVarChar   = sqltypes.TypeVarChar
	TypeNVarChar  = sqltypes.TypeNVarChar
	TypeBinary    = sqltypes.TypeBinary
	TypeVarBinary = sqltypes.TypeVarBinary
	TypeDateTime  = sqltypes.TypeDateTime
	TypeUniqueID  = sqltypes.TypeUniqueID
)

// SyncMode selects the WAL durability mode.
type SyncMode = wal.SyncMode

// WAL durability modes.
const (
	// SyncBuffered flushes to the OS on commit (default).
	SyncBuffered = wal.SyncBuffered
	// SyncFull fsyncs on every commit.
	SyncFull = wal.SyncFull
	// SyncNone buffers in user space until checkpoint/close.
	SyncNone = wal.SyncNone
)

// DefaultBlockSize is the paper's production block size (100K transactions
// per block).
const DefaultBlockSize = core.DefaultBlockSize

// Open opens (creating if necessary) the ledger database in Options.Dir.
// A directory holding a multi-shard database (a layout earlier builds
// wrote) is refused, and nothing in it is created or written.
func Open(opts Options) (*DB, error) { return core.Open(opts) }

// NewMetricsRegistry returns an enabled metrics registry to pass as
// Options.Obs (share one across databases to aggregate their metrics).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DisabledMetrics returns an inert registry: every recording reduces to
// one branch. It is the metrics-off baseline for overhead measurements.
func DisabledMetrics() *MetricsRegistry { return obs.Disabled() }

// StartMetricsServer serves reg over HTTP at addr ("127.0.0.1:0" picks a
// free port): /metrics in Prometheus text format, /debug/trace and
// /debug/events as JSON, /debug/pprof for profiling.
func StartMetricsServer(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return obs.StartServer(addr, reg)
}

// RestoreToTime point-in-time-restores the database in srcDir into dstDir
// as of targetTS (unix nanoseconds), starting a new incarnation (§3.6):
// the restore creates the destination's log, whose create time is the
// incarnation its digests carry, so they are kept apart from the
// original's, and digests of earlier incarnations remain verifiable for
// the blocks that survive the restore.
func RestoreToTime(srcDir, dstDir string, targetTS int64) error {
	return engine.RestoreToTime(srcDir, dstDir, targetTS)
}

// RepairFromBackup repairs db in place from a verified backup (§3.7):
// rows that were modified, injected or deleted by a storage-level
// attacker are restored to the backup's state. The backup must verify
// against the provided digests first. With dryRun, divergences are only
// reported.
func RepairFromBackup(db, backup *DB, digests []Digest, dryRun bool) (*RepairReport, error) {
	return core.RepairFromBackup(db, backup, digests, dryRun)
}

// NewDigestUploader creates a periodic digest uploader writing to store.
func NewDigestUploader(db *DB, store BlobStore) *DigestUploader {
	return core.NewDigestUploader(db, store)
}

// NewSQLSession opens a SQL session: CREATE TABLE ... WITH (LEDGER = ON),
// DML, SELECT (including "<table>_ledger" views), transactions with
// savepoints, GENERATE DIGEST and VERIFY. Sessions are not safe for
// concurrent use; open one per connection.
func NewSQLSession(db *DB, user string) *SQLSession { return sql.NewSession(db, user) }

// NewMemoryBlobStore returns an in-memory immutable blob store.
func NewMemoryBlobStore() BlobStore { return blobstore.NewMemory() }

// NewDirBlobStore returns a file-backed immutable blob store rooted at dir.
func NewDirBlobStore(dir string) (BlobStore, error) { return blobstore.NewDir(dir) }

// VerifyReceipt checks a transaction receipt offline against the signer's
// public key; it needs no database access.
var VerifyReceipt = core.VerifyReceipt

// ParseDigest parses a digest JSON document.
func ParseDigest(b []byte) (Digest, error) { return core.ParseDigest(b) }

// SignDigest signs a digest with the organization's private key (§2.4),
// so partners and auditors can authenticate it.
var SignDigest = core.SignDigest

// VerifySignedDigest checks a signed digest's authenticity.
var VerifySignedDigest = core.VerifySignedDigest

// ParseSignedDigest parses a signed digest JSON document.
func ParseSignedDigest(b []byte) (SignedDigest, error) { return core.ParseSignedDigest(b) }

// ParseReceipt parses a receipt JSON document.
func ParseReceipt(b []byte) (Receipt, error) { return core.ParseReceipt(b) }

// VerifyReadReceipt checks a snapshot-read receipt offline against the
// signer's public key; it needs no database access.
var VerifyReadReceipt = core.VerifyReadReceipt

// ParseReadReceipt parses a read receipt JSON document.
func ParseReadReceipt(b []byte) (ReadReceipt, error) { return core.ParseReadReceipt(b) }

// Schema construction helpers.

// NewSchema builds a schema from columns and primary-key column names.
func NewSchema(cols []Column, keyNames ...string) (*Schema, error) {
	return sqltypes.NewSchema(cols, keyNames...)
}

// MustSchema is NewSchema that panics on error.
func MustSchema(cols []Column, keyNames ...string) *Schema {
	return sqltypes.MustSchema(cols, keyNames...)
}

// Col declares a non-nullable column.
func Col(name string, t TypeID) Column { return sqltypes.Col(name, t) }

// NullableCol declares a nullable column.
func NullableCol(name string, t TypeID) Column { return sqltypes.NullableCol(name, t) }

// VarCol declares a variable-length column with a declared max length.
func VarCol(name string, t TypeID, length int) Column { return sqltypes.VarCol(name, t, length) }

// DecimalCol declares a DECIMAL column.
func DecimalCol(name string, prec, scale int) Column { return sqltypes.DecimalCol(name, prec, scale) }

// Value constructors.

// Null returns the NULL value of type t.
func Null(t TypeID) Value { return sqltypes.NewNull(t) }

// Bit returns a BIT value.
func Bit(b bool) Value { return sqltypes.NewBit(b) }

// TinyInt returns a TINYINT value.
func TinyInt(i uint8) Value { return sqltypes.NewTinyInt(i) }

// SmallInt returns a SMALLINT value.
func SmallInt(i int16) Value { return sqltypes.NewSmallInt(i) }

// Int returns an INT value.
func Int(i int32) Value { return sqltypes.NewInt(i) }

// BigInt returns a BIGINT value.
func BigInt(i int64) Value { return sqltypes.NewBigInt(i) }

// Float returns a FLOAT value.
func Float(f float64) Value { return sqltypes.NewFloat(f) }

// Decimal returns a DECIMAL value from its scaled integer representation.
func Decimal(scaled int64) Value { return sqltypes.NewDecimal(scaled) }

// Char returns a CHAR value.
func Char(s string) Value { return sqltypes.NewChar(s) }

// VarChar returns a VARCHAR value.
func VarChar(s string) Value { return sqltypes.NewVarChar(s) }

// NVarChar returns an NVARCHAR value.
func NVarChar(s string) Value { return sqltypes.NewNVarChar(s) }

// Binary returns a BINARY value.
func Binary(b []byte) Value { return sqltypes.NewBinary(b) }

// VarBinary returns a VARBINARY value.
func VarBinary(b []byte) Value { return sqltypes.NewVarBinary(b) }

// DateTime returns a DATETIME value.
func DateTime(t time.Time) Value { return sqltypes.NewDateTime(t) }

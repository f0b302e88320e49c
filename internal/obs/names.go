package obs

// Canonical metric names. Instrumented packages and tests share these
// constants so the exposition surface is greppable in one place. Every
// name has a reader — bench/, the health gauge, README or DESIGN — and
// TestEveryNameHasAReader keeps it that way.
const (
	// WAL (internal/wal)
	WALFsyncTotal    = "sqlledger_wal_fsync_total"
	WALFlushTotal    = "sqlledger_wal_flush_total"
	WALAppendRecords = "sqlledger_wal_append_records_total"
	WALAppendBytes   = "sqlledger_wal_append_bytes_total"
	WALGroupCommits  = "sqlledger_wal_group_commits_total"
	WALGroups        = "sqlledger_wal_groups_total"

	// Engine commit pipeline (internal/engine)
	CommitStageSeconds = "sqlledger_commit_stage_seconds" // label: stage
	LockWaitSeconds    = "sqlledger_lock_wait_seconds"
	LockTimeoutTotal   = "sqlledger_lock_timeout_total"

	// Engine MVCC read path (internal/engine/readtx.go).
	// SnapshotReadsTotal counts rows returned by snapshot (read-only)
	// transactions; VersionsLive tracks stored row versions, live and
	// superseded; VersionGCReclaimedTotal counts versions reclaimed by the
	// background GC.
	SnapshotReadsTotal      = "sqlledger_snapshot_reads_total"
	VersionsLive            = "sqlledger_versions_live"
	VersionGCReclaimedTotal = "sqlledger_version_gc_reclaimed_total"

	// Ledger core (internal/core)
	// RowsHashedTotal counts row versions hashed on the DML ingest path
	// (inserts, updates, deletes and batched ingest; verification's
	// re-hashing is not counted). HashBatchSize observes the row count of
	// each InsertBatch call.
	RowsHashedTotal     = "sqlledger_rows_hashed_total"
	HashBatchSize       = "sqlledger_hash_batch_size"
	BlocksClosedTotal   = "sqlledger_blocks_closed_total"
	BlockCloseSeconds   = "sqlledger_block_close_seconds"
	VerifyProgressRatio = "sqlledger_verify_progress_ratio"

	// Always-on auditor (internal/core/auditor.go).
	// VerifiedThroughBlock is the persisted verification watermark: the
	// highest block whose chain invariants the auditor has re-verified.
	// AuditLagSeconds is how long ago the last audit cycle completed
	// (refreshed per cycle and per health check).
	VerifiedThroughBlock = "sqlledger_verified_through_block"
	AuditLagSeconds      = "sqlledger_audit_lag_seconds"

	// Health (internal/core): 0 healthy, 1 degraded, 2 unhealthy.
	HealthStatus = "sqlledger_health_status"

	// Recovery and checkpointing (internal/engine).
	// RecoverySeconds observes the phases of crash recovery (label:
	// phase=snapshot|replay|install). CheckpointQuiesceSeconds is the
	// window the global quiesce lock was held to pin a checkpoint's cut —
	// the part writers actually wait for.
	RecoverySeconds          = "sqlledger_recovery_seconds" // label: phase
	CheckpointQuiesceSeconds = "sqlledger_checkpoint_quiesce_seconds"

	// SQL sessions (internal/sql). StatementSeconds observes end-to-end
	// latency per statement fingerprint (label: stmt).
	StatementSeconds = "sqlledger_statement_seconds" // label: stmt
)

package obs

// Canonical metric names. Instrumented packages and tests share these
// constants so the exposition surface is greppable in one place.
const (
	// WAL (internal/wal)
	WALFsyncTotal        = "sqlledger_wal_fsync_total"
	WALFsyncSeconds      = "sqlledger_wal_fsync_seconds"
	WALFlushTotal        = "sqlledger_wal_flush_total"
	WALAppendRecords     = "sqlledger_wal_append_records_total"
	WALAppendBytes       = "sqlledger_wal_append_bytes_total"
	WALGroupCommits      = "sqlledger_wal_group_commits_total"
	WALGroups            = "sqlledger_wal_groups_total"
	WALGroupRecords      = "sqlledger_wal_group_records_total"
	WALGroupSize         = "sqlledger_wal_group_size"
	WALGroupFlushSeconds = "sqlledger_wal_group_flush_seconds"

	// Engine commit pipeline (internal/engine)
	EngineCommitTotal   = "sqlledger_engine_commit_total"
	EngineRollbackTotal = "sqlledger_engine_rollback_total"
	CommitStageSeconds  = "sqlledger_commit_stage_seconds" // label: stage
	LockWaitSeconds     = "sqlledger_lock_wait_seconds"
	LockTimeoutTotal    = "sqlledger_lock_timeout_total"

	// Engine MVCC read path (internal/engine/readtx.go).
	// SnapshotReadsTotal counts rows returned by snapshot (read-only)
	// transactions; VersionsLive tracks stored row versions, live and
	// superseded; VersionGCReclaimedTotal counts versions reclaimed by the
	// background GC; ReadSnapshotLagSeconds observes, at read-tx close,
	// how far the applied-commit watermark advanced past the pinned
	// snapshot while it was held (zero on an idle database).
	SnapshotReadsTotal      = "sqlledger_snapshot_reads_total"
	VersionsLive            = "sqlledger_versions_live"
	VersionGCReclaimedTotal = "sqlledger_version_gc_reclaimed_total"
	ReadSnapshotLagSeconds  = "sqlledger_read_snapshot_lag_seconds"

	// Ledger core (internal/core)
	// RowsHashedTotal counts row versions hashed on the DML ingest path
	// (inserts, updates, deletes and batched ingest; verification's
	// re-hashing is not counted). HashBatchSize observes the row count of
	// each InsertBatch call.
	RowsHashedTotal       = "sqlledger_rows_hashed_total"
	HashBatchSize         = "sqlledger_hash_batch_size"
	BlocksClosedTotal     = "sqlledger_blocks_closed_total"
	BlockCloseSeconds     = "sqlledger_block_close_seconds"
	LedgerQueueLength     = "sqlledger_ledger_queue_length"
	DigestTotal           = "sqlledger_digest_total"
	DigestGenerateSeconds = "sqlledger_digest_generate_seconds"
	DigestUploadTotal     = "sqlledger_digest_upload_total"
	DigestUploadSeconds   = "sqlledger_digest_upload_seconds"
	VerifyTotal           = "sqlledger_verify_total"
	VerifyIssuesTotal     = "sqlledger_verify_issues_total"
	VerifyPhaseSeconds    = "sqlledger_verify_phase_seconds" // label: phase
	VerifyProgressRatio   = "sqlledger_verify_progress_ratio"

	// Multi-shard databases (internal/core/db.go, superblock.go). Per-shard
	// series carry a shard="NNN" label. ShardImbalanceRatio is
	// max(per-shard rows)/mean(per-shard rows) since open — 1.0 is a
	// perfectly balanced hash partition.
	ShardCommitsTotal      = "sqlledger_shard_commits_total"
	ShardIngestRowsTotal   = "sqlledger_shard_ingest_rows_total"
	ShardImbalanceRatio    = "sqlledger_shard_imbalance_ratio"
	CrossShardTxTotal      = "sqlledger_cross_shard_tx_total"
	SuperblockCloseSeconds = "sqlledger_superblock_close_seconds"
	SuperblocksClosedTotal = "sqlledger_superblocks_closed_total"

	// Always-on auditor (internal/core/auditor.go).
	// VerifiedThroughBlock is the persisted verification watermark: the
	// highest block whose chain invariants the auditor has re-verified.
	// AuditLagSeconds is how long ago the last audit cycle completed
	// (refreshed per cycle and per health check). AuditBlocksCheckedTotal
	// carries mode="incremental" for delta blocks and mode="sampled" for
	// cold-history sweeps.
	VerifiedThroughBlock    = "sqlledger_verified_through_block"
	AuditLagSeconds         = "sqlledger_audit_lag_seconds"
	AuditCyclesTotal        = "sqlledger_audit_cycles_total"
	AuditBlocksCheckedTotal = "sqlledger_audit_blocks_checked_total" // label: mode
	AuditCycleSeconds       = "sqlledger_audit_cycle_seconds"

	// Health (internal/core): 0 healthy, 1 degraded, 2 unhealthy.
	HealthStatus = "sqlledger_health_status"

	// Go runtime (internal/obs/runtime.go)
	RuntimeGoroutines     = "sqlledger_runtime_goroutines"
	RuntimeHeapAllocBytes = "sqlledger_runtime_heap_alloc_bytes"
	RuntimeHeapSysBytes   = "sqlledger_runtime_heap_sys_bytes"
	RuntimeGCTotal        = "sqlledger_runtime_gc_total"
	RuntimeGCPauseSeconds = "sqlledger_runtime_gc_pause_seconds"

	// Blobstore I/O (internal/blobstore), labelled op=put|get|list
	BlobstoreOpsTotal    = "sqlledger_blobstore_ops_total"
	BlobstoreOpSeconds   = "sqlledger_blobstore_op_seconds"
	BlobstoreErrorsTotal = "sqlledger_blobstore_errors_total"
	BlobstoreBytesTotal  = "sqlledger_blobstore_bytes_total"

	// Recovery and checkpointing (internal/engine).
	// RecoverySeconds observes the phases of crash recovery (label:
	// phase=snapshot|replay|install); RecoveryRecordsReplayedTotal counts
	// WAL records scanned by redo. CheckpointSeconds is the end-to-end
	// checkpoint duration; CheckpointQuiesceSeconds is just the window
	// the global quiesce lock was held to pin the cut — the part writers
	// actually wait for.
	RecoverySeconds              = "sqlledger_recovery_seconds" // label: phase
	RecoveryRecordsReplayedTotal = "sqlledger_recovery_records_replayed_total"
	CheckpointSeconds            = "sqlledger_checkpoint_seconds"
	CheckpointQuiesceSeconds     = "sqlledger_checkpoint_quiesce_seconds"

	// Transaction tracing (internal/obs/txtrace.go).
	// TracesTotal counts finished traces by retention decision
	// (decision=slow|error|sampled|dropped). StatementSeconds observes
	// end-to-end latency per statement fingerprint (label: stmt) and
	// carries trace exemplars, as does CommitStageSeconds.
	TracesTotal      = "sqlledger_traces_total"      // label: decision
	StatementSeconds = "sqlledger_statement_seconds" // label: stmt
)

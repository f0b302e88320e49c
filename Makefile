# Tier-1: everything must build and every test must pass.
.PHONY: test
test:
	go build ./... && go test ./...

# Fail if any file is not gofmt-clean.
.PHONY: fmt-check
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

.PHONY: vet
vet:
	go vet ./...

# Race-enabled run of the core verification tests: the sharded scans,
# worker-pool hashing and single-pass index checks are concurrent, so
# exercise them under the race detector.
.PHONY: test-race-verify
test-race-verify:
	go test -race ./internal/core/ -run Verify
	go test -race ./internal/engine/ -run Scan

# Race-enabled commit stress: N goroutines hammering the staged
# group-commit pipeline at every layer (WAL group committer, engine commit
# stages, ledger ordinal assignment and crash recovery).
.PHONY: test-race-commit
test-race-commit:
	go test -race ./internal/wal/ -run Group
	go test -race ./internal/engine/ -run Commit
	go test -race ./internal/core/ -run 'ConcurrentCommit|GroupCommitCrash'

# Race-enabled observability tests: the registry, histogram and tracer
# are hit from every commit goroutine, so prove the layer race-free and
# exercise the instrumented end-to-end path under -race too. The trace
# runs cover the tail-sampling store, cross-shard trace propagation and
# the exemplar → /debug/trace?id= walk under concurrent committers.
.PHONY: test-race-obs
test-race-obs:
	go test -race ./internal/obs/
	go test -race ./internal/core/ -run 'Observability|Trace'
	go test -race ./internal/workload/ -run Drive
	go test -race . -run TraceEndToEnd

# Tracing-overhead gate: per-transaction tracing must cost ≤3% on
# durable commits (backs BenchmarkInstrumentationOverhead's
# trace=on/trace=off split). Race-free and run alone on purpose — the
# gate measures wall-clock ratios, which the race detector and
# concurrent test packages distort; SQLLEDGER_TRACE_GATE=1 arms the
# strict 3% bound (the test self-loosens inside `go test ./...`).
.PHONY: trace-gate
trace-gate:
	SQLLEDGER_TRACE_GATE=1 go test -run TracingOverheadGate -v .

# Race-enabled health/audit observability tests: the event log ring, the
# runtime sampler, the health checker's cross-mutex reads and the verify
# progress sink all run concurrently with commits and verification.
.PHONY: test-race-health
test-race-health:
	go test -race ./internal/obs/ -run 'Event|Runtime|Tracer|Server'
	go test -race ./internal/core/ -run 'Health|VerifyProgress|AuditEvent|OpsServer'

# Smoke-test the live metrics endpoint: a short ledgerbench commit run
# serving /metrics on an ephemeral port; the binary self-checks that the
# endpoint answers with the headline series before exiting.
.PHONY: bench-smoke
bench-smoke:
	go run ./cmd/ledgerbench -exp commit -duration 1s \
		-metrics-addr 127.0.0.1:0 -stats-every 2s

# Verification benchmarks (Figure 9 + the parallelism ablation), with
# allocation stats so hot-path regressions are visible.
.PHONY: bench-verify
bench-verify:
	go test -run - -bench 'Figure9|VerificationParallelism' -benchmem .
	go test -run - -bench 'HashRow' -benchmem ./internal/serial/

# Commit-scaling benchmark: group vs. serialized pipeline under SyncFull.
.PHONY: bench-commit
bench-commit:
	go test -run - -bench CommitConcurrent -benchtime 2000x .

# Ingest-scaling gate + benchmark: serial inserts vs. the InsertBatch
# worker pool at 1/2/4/8 hashing workers. Race-free on purpose — the
# scaling gate measures wall-clock ratios and the allocation gates use
# testing.AllocsPerRun, both of which the race detector distorts.
.PHONY: bench-ingest
bench-ingest:
	go test -run 'IngestScaling' -v .
	go test -run 'Alloc' ./internal/serial/ ./internal/core/
	go test -run - -bench 'Ingest' -benchmem .

# Read-scaling gate + benchmark: MVCC snapshot readers at 1/2/4/8 clients
# with 2 update writers always active. Race-free on purpose — the gate
# measures wall-clock ratios, which the race detector distorts.
.PHONY: bench-read
bench-read:
	go test -run 'ReadScaling' -v .
	go test -run - -bench 'ReadConcurrent' -benchtime 200x .

# Race-enabled MVCC read-path audit: snapshot readers, writers and the
# version GC racing over shared version chains, the lock-table
# timeout-vs-release window, and the read-receipt build running against
# live commits.
.PHONY: test-race-read
test-race-read:
	go test -race ./internal/engine/ -run 'Snapshot|VersionGC|LockTimeoutReleaseRace'
	go test -race ./internal/core/ -run 'ReadReceipt'
	go test -race . -run 'ReadScaling'

# Race-enabled always-on auditor tests: the background audit loop runs
# concurrently with live committers, watermark saves race reopen, and the
# sharded fan-out re-checks every shard head per cycle — prove the whole
# surface race-free, including the ops endpoints it feeds.
.PHONY: test-race-audit
test-race-audit:
	go test -race ./internal/core/ -run 'Auditor|AuditOps|ShardedOps'

# Auditor cost model: the incremental cycle must stay flat as ledger depth
# grows (the O(K) result — N=64 vs N=512 with the same K=8 delta), plus
# the sampled cold-history sweep and the ledgerbench comparison table
# (full verify vs. catch-up vs. incremental vs. sampled).
.PHONY: bench-audit
bench-audit:
	go test -run - -bench 'BenchmarkAudit' -benchmem .
	go run ./cmd/ledgerbench -exp audit

# Race-enabled sharded-ledger audit: the engine's two-phase commit
# (prepare/commit/abort and in-doubt recovery), cross-shard transactions
# hammering the coordinator's decision log, and super-block closes racing
# live multi-client ingest.
.PHONY: test-race-shard
test-race-shard:
	go test -race ./internal/engine/ -run 'Prepare|ReadOnlyPrepare'
	go test -race ./internal/core/ -run 'Sharded'

# Shard-scaling gate + benchmark: the fixed 4-client pool at 1/2/4
# shards, plus the digest-equality and super-root reproducibility checks.
# Race-free on purpose — the gate measures wall-clock ratios, which the
# race detector distorts (test-race-shard audits the same paths).
.PHONY: bench-shard
bench-shard:
	go test -run 'ShardIngestScaling' -v .
	go test -run - -bench 'IngestSharded' -benchtime 20x .

# Race-enabled fast-restart audit: the pipelined WAL reader's
# producer/decode-pool/reassembly stages, parallel redo workers and the
# parallel snapshot codec under -race, plus online checkpoints racing
# live committers and the crash-image equivalence check (serial vs.
# parallel replay must produce identical digests and verify green).
.PHONY: test-race-recover
test-race-recover:
	go test -race ./internal/wal/ -run 'Pipelined'
	go test -race ./internal/engine/ -run 'Recovery|Checkpoint|Snapshot'
	go test -race . -run 'RecoverySerialParallelEquivalence|RecoveryScaling'

# Recovery-scaling gate + benchmark: full-WAL restart at 1/2/4/8 replay
# workers over one crash image, plus the ledgerbench restart table.
# Race-free on purpose — the gate measures wall-clock ratios, which the
# race detector distorts (test-race-recover audits the same paths).
.PHONY: bench-recover
bench-recover:
	go test -run 'RecoveryScaling' -v .
	go test -run - -bench 'BenchmarkRecovery' -benchtime 3x .
	go run ./cmd/ledgerbench -exp recover

# The repository's benchmark (BENCHMARK.json; bench/README.md): the six
# workloads end to end, results under bench/out/.
.PHONY: bench
bench:
	bash bench/run.sh

# bench/ is a module of its own that the root `go test ./...` never
# reaches: build it and run its tests, so a change to the facade it
# compiles against cannot break the benchmark unnoticed.
.PHONY: bench-test
bench-test:
	go -C bench test .

.PHONY: check
check: fmt-check vet test bench-test test-race-verify test-race-commit test-race-obs test-race-health test-race-read test-race-shard test-race-audit test-race-recover

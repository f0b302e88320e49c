# Tier-1: everything must build and every test must pass.
.PHONY: test
test:
	go build ./... && go test ./...

# Non-test Go lines outside the benchmark module: the number ROADMAP and
# CHANGES quote when a PR claims to have made the code base smaller.
.PHONY: loc
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' \
		| xargs cat | wc -l

# Fail if a tracked file outside testdata/ is over 1 MiB: build outputs
# belong in .gitignore (PR 17 committed two 11 MB binaries).
.PHONY: no-large-files
no-large-files:
	@out=$$(git ls-files -z | grep -zvE '(^|/)testdata/' | xargs -0 -r du -k 2>/dev/null | awk '$$1 > 1024'); \
		if [ -n "$$out" ]; then echo "tracked files over 1 MiB:"; echo "$$out"; exit 1; fi

# Fail if any file is not gofmt-clean.
.PHONY: fmt-check
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

.PHONY: vet
vet:
	go vet ./...

# Every package under the race detector. The verification kernel's
# partitioned scans, the commit pipeline, the registry and tracer, the MVCC
# read path, the auditor loops, cross-shard 2PC and parallel recovery are
# all concurrent; one unfiltered run covers them without -run patterns
# that stop matching when a test is renamed (~30 s on 2 vCPUs).
.PHONY: test-race
test-race:
	go test -race ./...

# Tracing-overhead gate: per-transaction tracing must cost ≤3% on
# durable commits (backs BenchmarkInstrumentationOverhead's
# trace=on/trace=off split). Race-free and run alone on purpose — the
# gate measures wall-clock ratios, which the race detector and
# concurrent test packages distort; SQLLEDGER_TRACE_GATE=1 arms the
# strict 3% bound (the test self-loosens inside `go test ./...`).
.PHONY: trace-gate
trace-gate:
	SQLLEDGER_TRACE_GATE=1 go test -run TracingOverheadGate -v .

# Every benchmark in the module, one iteration each: the root benchmarks
# are the only home of Figures 8/9, §2.2, §4.1.1 and the scaling tables
# (EXPERIMENTS.md), so they must not rot unrun (~10 s on 2 vCPUs).
.PHONY: bench-smoke
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# Verification benchmarks (Figure 9 + the parallelism ablation), with
# allocation stats so hot-path regressions are visible.
.PHONY: bench-verify
bench-verify:
	go test -run - -bench 'Figure9|VerificationParallelism' -benchmem .
	go test -run - -bench 'HashRow|HashEncoded' -benchmem ./internal/serial/

# Commit-scaling benchmark: commits/s, fsync/commit and commits/group at
# 1/2/4/8 clients under SyncFull.
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

# Auditor cost model: the incremental cycle must stay flat as ledger depth
# grows (the O(K) result — N=64 vs N=512 with the same K=8 delta), beside
# the first catch-up cycle from an empty watermark and the sampled
# cold-history sweep.
.PHONY: bench-audit
bench-audit:
	go test -run - -bench 'BenchmarkAudit' -benchmem .

# Shard-scaling gate + benchmark: the fixed 4-client pool at 1/2/4
# shards, plus the digest-equality and super-root reproducibility checks.
# Race-free on purpose — the gate measures wall-clock ratios, which the
# race detector distorts (test-race audits the same paths).
.PHONY: bench-shard
bench-shard:
	go test -run 'ShardIngestScaling' -v .
	go test -run - -bench 'IngestShards' -benchtime 20x .

# Recovery-scaling gate + benchmark: full-WAL restart at 1/2/4/8 replay
# workers over one crash image.
# Race-free on purpose — the gate measures wall-clock ratios, which the
# race detector distorts (test-race audits the same paths).
.PHONY: bench-recover
bench-recover:
	go test -run 'RecoveryScaling' -v .
	go test -run - -bench 'BenchmarkRecovery' -benchtime 3x .

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

# The native fuzz targets — the WAL's frame reader and payload decoders,
# the row decoder every stored row passes through on every read, the
# history-image splice and the column projection against the decode, edit
# and re-encode they replace, the stored-bytes row hasher the write path
# and verification run on against the []Value one kept as its oracle, the
# super-block watermark Open reads back, the read-receipt parser and
# verifier (a mutant that verifies proves nothing the seed does not), and
# the snapshot loader, whose seeds are a few KiB — minimizing each new
# input for the default minute would leave it no time to fuzz — 10 s each:
# long enough to walk past the seeds, short enough for every push.
# `go test -fuzz` takes one target per run.
.PHONY: fuzz-smoke
fuzz-smoke:
	@for target in FuzzFrameReader FuzzDecodeDML FuzzDecodeCommit FuzzDecodePrepare; do \
		go test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s ./internal/wal || exit 1; \
	done
	go test -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime 10s ./internal/sqltypes
	go test -run '^$$' -fuzz '^FuzzSpliceBigInts$$' -fuzztime 10s ./internal/sqltypes
	go test -run '^$$' -fuzz '^FuzzHashEncoded$$' -fuzztime 10s ./internal/serial
	go test -run '^$$' -fuzz '^FuzzSuperBlock$$' -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz '^FuzzParseReadReceipt$$' -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime 10s -fuzzminimizetime 500x ./internal/engine

.PHONY: check
check: fmt-check no-large-files vet test bench-test test-race fuzz-smoke

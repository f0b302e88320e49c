# Tier-1: everything must build and every test must pass.
.PHONY: test
test:
	go build ./... && go test ./...

# Non-test Go lines outside the benchmark module: the number ROADMAP and
# CHANGES quote when a PR claims to have made the code base smaller.
# `make loc BASE=<rev>` counts a git archive of <rev> the same way and
# prints its count, this tree's and the delta: a PR's line claim.
LOC = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' \
	| xargs cat | wc -l
.PHONY: loc
loc:
ifeq ($(BASE),)
	@$(LOC)
else
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		git archive "$(BASE)" | tar -x -C "$$tmp" && \
		base=$$(cd "$$tmp" && $(LOC)) && here=$$($(LOC)) && \
		echo "$(BASE): $$base" && echo "this tree: $$here" && echo "delta: $$((here - base))"
endif

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
# read path, the auditor loop and parallel recovery are all concurrent;
# one unfiltered run covers them without -run patterns that stop matching
# when a test is renamed (~30 s on 2 vCPUs).
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
# scaling gate measures wall-clock ratios, and the allocation gates use
# testing.AllocsPerRun (redo's objects per replayed record among them) or,
# for the B+tree's bytes per node, the heap itself (leaves of ids, of
# index entries and of composite order-line keys, whose prefix the leaf
# stores once), all of which the race detector distorts.
.PHONY: bench-ingest
bench-ingest:
	go test -run 'IngestScaling' -v .
	go test -run 'Alloc' ./internal/serial/ ./internal/core/ ./internal/engine/ ./internal/btree/
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

# Recovery equivalence test + restart benchmark: crash images recovered
# at 1/2/4 workers must give the built digest, a green Verify and every
# acknowledged row; then full-WAL restart at 1/2/4/8 recovery workers.
.PHONY: bench-recover
bench-recover:
	go test -run 'RecoverySerialParallelEquivalence' -v .
	go test -run - -bench 'BenchmarkRecovery' -benchtime 3x .

# The repository's benchmark (BENCHMARK.json; bench/README.md): the six
# workloads end to end, results under bench/out/.
.PHONY: bench
bench:
	bash bench/run.sh

# The trajectory file of a change (ROADMAP 2(a)): five passes of the six
# workloads on the current tree, with each metric's spread, written to
# BENCH_<PR>.json at the root. Run the same on the parent commit in the
# same hour for BENCH_<PR>_parent.json, then diff the two with
# `go run -C bench . -compare ../BENCH_<PR>_parent.json ../BENCH_<PR>.json`.
.PHONY: bench-record
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>"; exit 2; }
	go run -C bench . -repeat 5 -out out/record-$(PR)
	cp bench/out/record-$(PR)/BENCH.json BENCH_$(PR).json

# bench/ is a module of its own that the root `go test ./...` never
# reaches: build it and run its tests, so a change to the facade it
# compiles against cannot break the benchmark unnoticed.
.PHONY: bench-test
bench-test:
	go -C bench test .

# The native fuzz targets — the WAL's frame reader and payload decoders,
# the row decoder every stored row passes through on every read, the
# history-image splice and the column projection against the decode, edit
# and re-encode they replace, the exact-size clustered key and the index
# entry's split into values and clustered key against EncodeKey, the
# stored-bytes row hasher the write path and verification run on against
# the []Value one kept as its oracle, the read-receipt parser and verifier
# (a mutant that verifies proves nothing the seed does not), the
# key redo derives from a logged image against the writer's EncodeRowKey,
# the snapshot loader, whose seeds are a few KiB — minimizing each new input
# for the default minute would leave it no time to fuzz — the heap row
# store against a model, whose runs are slow to minimize for the same
# reason, the B+tree against a sorted map with its invariants checked
# after every run of operations, and the SQL lexer and parser — 10 s each:
# long enough to walk past the seeds, short enough for every push.
# `go test -fuzz` takes one target per run.
.PHONY: fuzz-smoke
fuzz-smoke:
	@for target in FuzzFrameReader FuzzDecodeDML FuzzDecodeCommit; do \
		go test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s ./internal/wal || exit 1; \
	done
	go test -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime 10s ./internal/sqltypes
	go test -run '^$$' -fuzz '^FuzzSpliceBigInts$$' -fuzztime 10s ./internal/sqltypes
	go test -run '^$$' -fuzz '^FuzzEncodeRowKey$$' -fuzztime 10s ./internal/sqltypes
	go test -run '^$$' -fuzz '^FuzzKeyPrefixLen$$' -fuzztime 10s ./internal/sqltypes
	go test -run '^$$' -fuzz '^FuzzHashEncoded$$' -fuzztime 10s ./internal/serial
	go test -run '^$$' -fuzz '^FuzzParseReadReceipt$$' -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz '^FuzzKeyOfStored$$' -fuzztime 10s ./internal/engine
	go test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime 10s -fuzzminimizetime 500x ./internal/engine
	go test -run '^$$' -fuzz '^FuzzHeapRows$$' -fuzztime 10s -fuzzminimizetime 500x ./internal/engine
	go test -run '^$$' -fuzz '^FuzzTree$$' -fuzztime 10s ./internal/btree
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/sql

.PHONY: check
check: fmt-check no-large-files vet test bench-test test-race fuzz-smoke

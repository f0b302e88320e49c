#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the repository root:
#
#   bash bench/run.sh --workload tpcc --seed 1 --seconds 8 --trace 0
#
# Builds the benchmark from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and runs it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/ledger-bench" .
exec "$build/ledger-bench" "$@"

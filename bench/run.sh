#!/usr/bin/env bash
# Build and run the benchmark from the root of a checkout:
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload point_approx --seed 3 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache included — stays
# under .bench_build in the checkout, so a run touches nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$root"
go build -C bench -o "$build/bin/llmq-bench" .
go build -o "$build/bin/llmq" ./cmd/llmq
exec "$build/bin/llmq-bench" -llmq "$build/bin/llmq" "$@"

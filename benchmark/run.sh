#!/usr/bin/env bash
# What BENCHMARK.json names as the command: builds the benchmark from source
# into .bench_build/ at the repository root and runs it with the arguments
# given. Go's build cache and temporary files are pointed there too, so that a
# run writes nothing outside the checkout it is run in.
#
#   bash benchmark/run.sh --workload stream_mesh --seed 7 --seconds 16 --trace 0
#
# `go run ./benchmark ...` does the same with the user's own Go cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

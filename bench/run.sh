#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# BENCHMARK.json names this script as the command; every argument goes
# to the harness (see README.md). Build outputs, Go's build cache and
# temporary files all stay under .bench_build/ so a run reads and writes
# nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
go build -o "$build/seldon-bench" ./bench
exec "$build/seldon-bench" "$@"

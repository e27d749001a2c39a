#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from anywhere inside a checkout:
#
#   bash bench/run.sh --workload search_uncached --seed 1 --seconds 20 --trace 0
#
# It builds cmd/dashload (which in turn builds cmd/dashserve) from the
# checkout's own source and runs it with the given flags. Everything the
# build and the run write — Go's build cache, the binaries, server data
# directories, logs — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
go build -o "$build/dashload" ./cmd/dashload
exec "$build/dashload" -serve-bin "$build/dashserve" "$@"

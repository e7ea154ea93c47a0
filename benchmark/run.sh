#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout
# with the arguments given:
#
#   bash benchmark/run.sh --workload ingest_fused --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and every file a run writes live in
# .bench_build/ at the root of the checkout, so nothing outside it is touched.
# The build is repeated on every call; with a warm cache it takes well under a
# second and picks up any change to the sources.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local
go build -C "$here" -o "$out/benchmark" .

cd "$root"
exec "$out/benchmark" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Everything the
# build and the run write stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -C "$root/bench" -buildvcs=false -o "$build/bin/embench" .
cd "$root"
exec "$build/bin/embench" "$@"

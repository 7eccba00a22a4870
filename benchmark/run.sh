#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# into .bench_build/ at the checkout root (go's caches too, so nothing is
# read or written outside the checkout) and replaces itself with the
# binary, passing every argument through.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/crucial-benchmark" .
exec "$build/crucial-benchmark" "$@"

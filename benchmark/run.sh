#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument is passed through (see main.go for the flags). Nothing is read or
# written outside the checkout: the Go build cache, temporary files and the
# binary live under .bench_build/, traces and WAL directories under
# benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=${AFT_BENCH_BUILD_DIR:-$root/.bench_build}
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/aft-benchmark" .)
cd "$root"
exec "$build/aft-benchmark" "$@"

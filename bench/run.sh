#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout
# it is run from) and runs it. Everything the toolchain writes — build
# cache, temp files, the binary — stays under .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/treeaa-bench" .)
exec "$build/treeaa-bench" "$@"

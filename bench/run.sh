#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root. The build reads and writes
# nothing outside the checkout: the compiler cache (GOCACHE), the module
# cache (GOPATH) and Go's config lookup (XDG_CONFIG_HOME) all point into
# .bench_build/, and GOTOOLCHAIN=local keeps go from fetching another
# toolchain.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"

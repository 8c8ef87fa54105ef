#!/usr/bin/env bash
# Builds the mmperf benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root; every build product, cache
# and temporary file stays under .bench_build there. See bench/README.md.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$build/mmperf" ./mmperf)
exec "$build/mmperf" "$@"

#!/usr/bin/env bash
# Builds the osprof benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash osbench/run.sh --workload record|ingest|query --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, temporary archives, span dumps, reports) stays under
# .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gotmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/gotmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go build -C osbench -o "$out/osbench" . >&2
exec "$out/osbench" "$@"

#!/usr/bin/env bash
# Builds cmd/broker and the load generator from source, then runs one
# benchmark workload:
#
#   bash perfbench/run.sh --workload alerts --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact stays
# under .bench_build/ in that root (including the Go build cache).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
mkdir -p "$build/bin"
(cd "$root" && go build -o "$build/bin/broker" ./cmd/broker)
(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -broker "$build/bin/broker" -work "$build/work" "$@"

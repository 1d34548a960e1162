#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, the logs a run writes and the span files of
# traced runs all stay under the build directory ($CARGO_TARGET_DIR, default
# .bench_build) inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload paper-mix-sim --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the qurkd workload's files stay
# under .bench_build in the current directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"

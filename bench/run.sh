#!/bin/bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write goes under .bench_build in the checkout, the Go build cache
# included. Usage: bash bench/run.sh [flags of the bench command]
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$root/.bench_build/sde-bench" .)
exec "$root/.bench_build/sde-bench" "$@"

#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload net_codec --seed 1 --seconds 15 --trace 0
# The build cache and the binary stay inside the checkout, in .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"

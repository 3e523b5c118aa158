#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it with the given
# arguments (see perfbench/main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-stall --seed 1 --seconds 50 --trace 0
#
# The build cache, the binary, temp stores and result files stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local
# The batch engine is an opt-in environment switch; measure the default.
unset CARF_BATCH

go build -o "$out/bin/perfbench" ./perfbench >&2
exec "$out/bin/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload crashk-des --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10
#   bash perfbench/run.sh --selftest
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (no go.mod and perfbench/go.mod here)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload lock-aec --seed 0 --seconds 20 --trace 0
#
# Run from the root of the repository. Everything the build and the runs
# write stays under .bench_build/ in that root: the go build cache, the
# binary, CPU profiles and span files. The toolchain is the local one and
# module downloads are off, so the build works offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" PPROF_TMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

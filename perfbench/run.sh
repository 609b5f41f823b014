#!/usr/bin/env bash
# Builds the benchmark and the stencil-serve binary it drives, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/stencil-serve" repro/cmd/stencil-serve)
exec "$out/perfbench" --server-bin "$out/stencil-serve" --out "$out/runs" "$@"

#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (see e2ebench/README.md). Run from the repository root:
#
#   bash e2ebench/run.sh --workload step-warm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build
# in the working directory: the Go build cache, the binary, fleet plan
# stores and Chrome trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/e2ebench" build -o "$out/bin/e2ebench" .
exec "$out/bin/e2ebench" "$@"

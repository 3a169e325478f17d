#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload topk-large --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, WAL and snapshot files,
# span files. Nothing is downloaded.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/vkg-bench" .
exec "$out/vkg-bench" -workdir "$out/work" "$@"

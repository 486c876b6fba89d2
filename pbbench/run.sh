#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository:
#
#   bash pbbench/run.sh --workload warm-read --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary,
# spans of traced runs) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

go -C "$root/pbbench" build -buildvcs=false -o "$out/pbbench" .
exec "$out/pbbench" "$@"

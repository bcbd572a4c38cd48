#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags,
# e.g. bash servebench/run.sh --workload topk_flex --seed 1 --seconds 10 --trace 0
# Run it from the repository root. The Go build cache, the binary, the trace
# artifacts and any spill files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$src" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"

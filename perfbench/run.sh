#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run from the checkout root:
#   bash perfbench/run.sh --workload search-filter-mapped --seed 1 --seconds 24 --trace 0
# Build output, the Go build cache, stores and temp files all stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash _perfbench/run.sh --workload paper-swap --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write (binary, Go build cache, span and profile files) goes under
# .bench_build/ in the checkout. Without the simulator's source next to
# _perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -out "$build/perfbench-out" "$@"

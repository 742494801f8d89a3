#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perf/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go caches, temporary
# files and the scratch stores all live under .bench_build/ so the run reads
# and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/perf" .)
exec "$out/perf" -workdir "$out" "$@"

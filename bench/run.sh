#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1|dir>
#
# Everything the build and the run leave behind goes under .bench_build
# at the repository root (the Go build cache included), so the script
# reads and writes nothing outside the checkout. The first run compiles
# the standard library into that cache and takes a few minutes.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$bench_dir" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" run "$@"

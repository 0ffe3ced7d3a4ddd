#!/usr/bin/env bash
# benchgate.sh — the performance gate. It builds the bench module
# (bench/) at a base commit and in this checkout, runs interleaved
# pairs of every workload BENCHMARK.json declares, and judges them with
# this checkout's `bench compare`: the gate fails when any end-to-end
# metric reads worse than the base by more than its bound, or when any
# run fails.
#
# Usage:
#   scripts/benchgate.sh <base-commit>
#
# Both sides run on this machine, one run after the other, so the gate
# compares two builds of the program, not two CPUs. The base is built
# in a git worktree in a temporary directory, removed on exit. When
# bench/ or BENCHMARK.json differ between the base and this checkout
# the two sides would run different benchmarks, so the gate compares
# nothing and passes.
set -euo pipefail
cd "$(dirname "$0")/.."

# PAIRS base/new pairs of RUN_SECONDS each per workload: medians over
# five pairs absorb one slow reference stretch, and the gate, builds
# included, takes about 8 minutes on a 2-vCPU host.
PAIRS=5
RUN_SECONDS=10
SEED=2010

if [ $# -ne 1 ]; then
    echo "usage: scripts/benchgate.sh <base-commit>" >&2
    exit 2
fi
base="$(git rev-parse --verify --quiet "$1^{commit}")" || {
    echo "bench gate: $1 is not a commit" >&2
    exit 2
}
if ! git diff --quiet "$base" -- bench BENCHMARK.json; then
    echo "bench gate: bench/ or BENCHMARK.json differ between ${base:0:12} and this checkout;"
    echo "bench gate: the two sides would run different benchmarks, so nothing is compared"
    exit 0
fi
workloads="$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)"
if [ -z "$workloads" ]; then
    echo "bench gate: no workloads found in BENCHMARK.json" >&2
    exit 2
fi

tmp="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$tmp/base" 2>/dev/null || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

export GOTOOLCHAIN=local GOPROXY=off
start=$(date +%s)
git worktree add --quiet --detach "$tmp/base" "$base"
echo "bench gate: building base ${base:0:12} and this checkout"
(cd "$tmp/base/bench" && go build -buildvcs=false -o "$tmp/bench-base" .)
(cd bench && go build -buildvcs=false -o "$tmp/bench-new" .)
mkdir "$tmp/runs"

# run SIDE WORKLOAD PAIR runs one side once and stops the gate if the
# run fails.
run() {
    local out="$tmp/runs/$1-$2-$3"
    local t0 rc=0
    t0=$(date +%s)
    "$tmp/bench-$1" run --workload "$2" --seed "$SEED" --seconds "$RUN_SECONDS" \
        --out "$out.json" >"$out.log" 2>&1 || rc=$?
    if [ "$rc" -ne 0 ]; then
        cat "$out.log" >&2
        echo "bench gate: $1 $2 pair $3 exited $rc" >&2
        exit 1
    fi
    echo "bench gate: pair $3/$PAIRS $2 $1 ($(($(date +%s) - t0)) s)"
}

for i in $(seq "$PAIRS"); do
    for w in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            run base "$w" "$i"
            run new "$w" "$i"
        else
            run new "$w" "$i"
            run base "$w" "$i"
        fi
    done
done

base_runs=() new_runs=()
for w in $workloads; do
    for i in $(seq "$PAIRS"); do
        base_runs+=("$tmp/runs/base-$w-$i.json")
        new_runs+=("$tmp/runs/new-$w-$i.json")
    done
done
rc=0
"$tmp/bench-new" compare -benchmark BENCHMARK.json "${base_runs[@]}" vs "${new_runs[@]}" || rc=$?
echo "bench gate: $(($(date +%s) - start)) s wall"
case "$rc" in
0) ;;
1) echo "bench gate: an end-to-end metric is worse than at ${base:0:12}" >&2 ;;
*) echo "bench gate: bench compare exited $rc" >&2 ;;
esac
exit "$rc"

#!/usr/bin/env bash
# bench.sh — run the benchmark suite and write BENCH_<n>.json with
# ns/op plus each benchmark's headline metric, seeding the repo's perf
# trajectory (BENCH_1.json, BENCH_2.json, ... across PRs) — or, in
# --check mode, gate on that trajectory.
#
# Usage:
#   scripts/bench.sh [output.json]     # record the full suite
#   scripts/bench.sh --check           # regression gate: run the pinned
#                                      # benchmarks and fail on a >30%
#                                      # ns/op regression against the
#                                      # latest committed BENCH_<n>.json
#   BENCHTIME=3x scripts/bench.sh      # more samples per benchmark
set -euo pipefail
cd "$(dirname "$0")/.."

# The pinned gate set: the kernel hot path (both ways to write a
# guest), the resident-memory footprint, the heaviest cluster
# artifacts (the routed fabric, the qdisc layer, and the chaos overlay
# with its crash/restart machinery), and the checkpoint/fork campaign
# path. BenchmarkMachineSteps also matches the
# BenchmarkMachineStepsDriver flyweight/body pair; the body halves are
# reported without a baseline until a BENCH file records them.
PINNED='BenchmarkMachineSteps|BenchmarkResidentMachines|BenchmarkRouterFlood|BenchmarkFairFlood|BenchmarkChaosFlood|BenchmarkForkedCampaign'
MAX_REGRESSION_PCT="${MAX_REGRESSION_PCT:-30}"

if [ "${1:-}" = "--check" ]; then
    BASE="$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)"
    if [ -z "$BASE" ]; then
        echo "bench check: no committed BENCH_<n>.json baseline found" >&2
        exit 1
    fi
    echo "bench check: comparing against $BASE (fail at >${MAX_REGRESSION_PCT}% ns/op regression)" >&2
    # ns/op is hardware-relative: flag when the baseline was recorded
    # on a different CPU so a cross-machine miss is diagnosable (raise
    # MAX_REGRESSION_PCT rather than trusting absolute numbers there).
    BASE_CPU="$(sed -n 's/.*"cpu": "\(.*\)",/\1/p' "$BASE" | head -1)"
    HOST_CPU="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1 || true)"
    if [ -n "$BASE_CPU" ] && [ -n "$HOST_CPU" ] && [ "$BASE_CPU" != "$HOST_CPU" ]; then
        echo "bench check: WARNING baseline cpu is \"$BASE_CPU\" but this host is \"$HOST_CPU\" — ns/op deltas include hardware skew" >&2
    fi
    RAW="$(mktemp)"
    trap 'rm -f "$RAW"' EXIT
    go test -run '^$' -bench "$PINNED" -benchtime "${BENCHTIME:-3x}" . | tee "$RAW" >&2
    awk -v base="$BASE" -v limit="$MAX_REGRESSION_PCT" '
    BEGIN {
        # Harvest baseline ns/op per benchmark from the committed JSON
        # (portable awk: quote-split for the name, sub() for the value).
        while ((getline line < base) > 0) {
            if (line !~ /"name": "Benchmark/ || line !~ /"ns_per_op": /)
                continue
            split(line, q, "\"")
            name = q[4]
            val = line
            sub(/.*"ns_per_op": /, "", val)
            sub(/[,}].*/, "", val)
            ref[name] = val + 0
        }
        close(base)
    }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = $3 + 0
        if (!(name in ref)) {
            printf "  %-28s %12.0f ns/op  (no baseline in %s — skipped)\n", name, ns, base
            next
        }
        pct = (ns / ref[name] - 1) * 100
        verdict = "ok"
        if (pct > limit) { verdict = "REGRESSION"; failed = 1 }
        printf "  %-28s %12.0f ns/op  vs %12.0f  (%+6.1f%%)  %s\n", name, ns, ref[name], pct, verdict
        checked++
    }
    END {
        if (checked == 0) { print "bench check: no pinned benchmarks ran"; exit 1 }
        if (failed) { printf "bench check: ns/op regressed more than %s%% against %s\n", limit, base; exit 1 }
        print "bench check: within budget"
    }
    ' "$RAW"
    exit $?
fi

OUT="${1:-BENCH_1.json}"
BENCHTIME="${BENCHTIME:-1x}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench . -benchtime "$BENCHTIME" . | tee "$RAW" >&2

awk -v benchtime="$BENCHTIME" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix if present
    iters = $2
    ns = $3
    metric_value = ""
    metric_unit = ""
    if (NF >= 6) { metric_value = $5; metric_unit = $6 }
    entry = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
    if (metric_unit != "")
        entry = entry sprintf(", \"metric\": {\"unit\": \"%s\", \"value\": %s}", metric_unit, metric_value)
    entry = entry "}"
    entries[n++] = entry
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
END {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    # Seed baseline: BenchmarkMachineSteps as measured on the v0 seed
    # tree (sequential channel-handoff kernel, pre-optimization), the
    # reference the >=25% ns/op improvement target is judged against.
    print "  \"baseline\": {"
    print "    \"benchmark\": \"BenchmarkMachineSteps\","
    print "    \"ns_per_op\": 143700000,"
    print "    \"recorded\": \"seed tree, PR 1, pre-optimization\""
    print "  },"
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++)
        printf "%s%s\n", entries[i], (i < n - 1 ? "," : "")
    print "  ]"
    print "}"
}
' "$RAW" > "$OUT"

echo "wrote $OUT" >&2

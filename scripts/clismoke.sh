#!/usr/bin/env bash
# clismoke.sh — drive every meterlab command and mode with tiny
# parameters, so a flag or wiring regression surfaces in CI instead of
# at release. Output is discarded; what this gates is "every
# documented invocation still runs to completion".
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="$(mktemp -d)/meterlab"
trap 'rm -rf "$(dirname "$BIN")"' EXIT
go build -o "$BIN" ./cmd/meterlab

SCALE="${SMOKE_SCALE:-0.01}"

say() { echo "clismoke: $*" >&2; }

say "list"
"$BIN" list >/dev/null

# Every registered artifact, one by one, through the campaign engine.
for id in $("$BIN" list); do
    say "run $id"
    "$BIN" run "$id" -scale "$SCALE" >/dev/null
done

# Every workload and every attack through the meter path.
for w in O P W B; do
    say "meter $w"
    "$BIN" meter "$w" -scale "$SCALE" >/dev/null
done
for a in shell ctor subst sched thrash irqflood excflood; do
    say "meter O -attack $a"
    "$BIN" meter O -attack "$a" -scale "$SCALE" >/dev/null
done

# A bad scheduler policy is a usage error: exit 1 with a message, not a
# panic out of the machine build.
say "scheduler policy validation"
SCHED_ERR="$(dirname "$BIN")/sched.err"
status=0
"$BIN" meter O -sched rr -scale "$SCALE" >/dev/null 2>"$SCHED_ERR" || status=$?
if [ "$status" -ne 1 ] || grep -q 'panic:' "$SCHED_ERR"; then
    say "meter O -sched rr exited $status (want 1, no panic):"
    cat "$SCHED_ERR" >&2
    exit 1
fi

# Cluster mode across its wire-shaping flag surface: defaults, lossy
# tuning, lossless replay, RED/ECN, EWMA RED, and both qdiscs.
say "cluster default"
"$BIN" cluster -victims O,O -pps 5000 -scale "$SCALE" >/dev/null
say "cluster lossy tuning"
"$BIN" cluster -victims O -pps 8000 -link-pps 20000 -queue-depth 32 -scale "$SCALE" >/dev/null
say "cluster lossless"
"$BIN" cluster -victims O -pps 5000 -lossless -scale "$SCALE" >/dev/null
say "cluster red"
"$BIN" cluster -victims O -pps 8000 -link-pps 20000 -red-min 8 -red-max 24 -scale "$SCALE" >/dev/null
say "cluster ewma red + drr"
"$BIN" cluster -victims O -pps 8000 -link-pps 20000 -qdisc drr -quantum-bytes 3000 \
    -red-min 8 -red-max 24 -red-weight 6 -scale "$SCALE" >/dev/null
say "cluster fifo explicit"
"$BIN" cluster -victims O -pps 8000 -link-pps 20000 -qdisc fifo -scale "$SCALE" >/dev/null

# Chaos mode across the fault-injection surface: healthy, transient
# syscall faults, a mid-flood router crash, and the full overlay with
# reboot plus a flapping egress. The command exits nonzero on any
# conservation-ledger violation, so these double as integrity gates.
say "chaos healthy"
"$BIN" chaos -pps 10000 -scale "$SCALE" >/dev/null
say "chaos transient faults"
"$BIN" chaos -pps 10000 -fault-ppm 20000 -fault-syscalls sendto,read -fault-errno eagain -scale "$SCALE" >/dev/null
say "chaos router crash"
"$BIN" chaos -pps 10000 -crash-at 0.15 -scale "$SCALE" >/dev/null
say "chaos crash+reboot+flap"
"$BIN" chaos -pps 10000 -fault-ppm 20000 -crash-at 0.15 -restart-after 0.08 \
    -flap 0.1:0.03:0.1 -scale "$SCALE" >/dev/null

# The examples: outside tests, the only callers of BuildReport,
# ManifestFromReference, Auditor and Profile. Each must exit 0, and
# the billing audit must accept the honest run and reject all four
# attacked ones.
for ex in quickstart attack-gallery trusted-billing; do
    say "example $ex"
    go run "./examples/$ex" >/dev/null
done
say "example billing-audit"
AUDIT="$(dirname "$BIN")/audit.out"
go run ./examples/billing-audit >"$AUDIT"
if ! grep -q '^honest run .* -> ACCEPT' "$AUDIT"; then
    say "billing-audit did not accept the honest run:"
    cat "$AUDIT" >&2
    exit 1
fi
rejects="$(grep -c -- '-> REJECT' "$AUDIT" || true)"
if [ "$rejects" -ne 4 ]; then
    say "billing-audit rejected $rejects runs (want 4):"
    cat "$AUDIT" >&2
    exit 1
fi

# The parallel campaign engine end to end (every artifact, all cores).
say "all"
"$BIN" all -scale "$SCALE" >/dev/null

# Checkpoint round trip: snapshot writes a replay manifest, resume
# replays it, restores an independent fork, and runs the fork to
# completion; a missing manifest must fail up front.
CKPT="$(dirname "$BIN")/checkpoint.json"
say "snapshot"
"$BIN" snapshot -out "$CKPT" >/dev/null
[ -s "$CKPT" ] || { say "snapshot manifest missing or empty"; exit 1; }
say "resume"
"$BIN" resume -from "$CKPT" >/dev/null
say "resume validation"
if "$BIN" resume -from "$(dirname "$BIN")/absent.json" >/dev/null 2>&1; then
    say "resume accepted a missing manifest"; exit 1
fi

# The pprof plumbing: a profiled run must leave non-empty profiles
# behind, and an unwritable destination must fail up front.
PROFDIR="$(dirname "$BIN")"
say "meter with profiles"
"$BIN" meter O -scale "$SCALE" -cpuprofile "$PROFDIR/cpu.pb.gz" -memprofile "$PROFDIR/mem.pb.gz" >/dev/null
[ -s "$PROFDIR/cpu.pb.gz" ] || { say "cpu profile missing or empty"; exit 1; }
[ -s "$PROFDIR/mem.pb.gz" ] || { say "mem profile missing or empty"; exit 1; }
say "profile path validation"
if "$BIN" meter O -scale "$SCALE" -cpuprofile /nonexistent-dir/cpu.pb >/dev/null 2>&1; then
    say "unwritable -cpuprofile path was accepted"; exit 1
fi

# Lint smoke: the vettool must load and run clean over the CLI package
# (CI restores SIMLINT_BIN from the per-job cache; locally lint.sh
# builds it once into bin/).
say "lint smoke"
scripts/lint.sh ./cmd/... >/dev/null

say "ok"

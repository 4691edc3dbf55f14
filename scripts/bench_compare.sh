#!/bin/sh
# bench_compare.sh — the perf-regression gate behind `make bench-compare`.
#
#   sh scripts/bench_compare.sh BASELINE TOLERANCE EXACT_JSON
#
# Exact rows: one run of the experiments that carry them (latency, and
# sched over every row of core's program table) on the portfolio
# schedule, written to EXACT_JSON, must match the recorded BASELINE
# with zero tolerance: makespans, schedule hashes, cycles/SM, lower
# bounds, trace op counts, ROM sizes.
#
# Host rows: fourq-bench is built twice, from the working tree and from
# the change's parent commit in a temporary git worktree, and the two
# builds run alternating pairs of the host-speed experiments (latency,
# throughput, batch) on the list schedule, taking turns at going first.
# benchcheck fails when a row's median per-pair working-tree/parent
# SM/s ratio falls below 1 - TOLERANCE. Both builds share this host and
# this hour, so host drift cancels; absolute SM/s never enters.
#
# The change's parent is HEAD when the working tree has uncommitted
# changes, and HEAD~1 when it is clean (the change is the last commit).
# GO names the go binary (default go).
set -eu

GO="${GO:-go}"
BASELINE="$1"
TOLERANCE="$2"
EXACT_JSON="$3"
PAIRS=10

TMP=$(mktemp -d)
cleanup() {
    git worktree remove --force "$TMP/parent" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "bench-compare: building fourq-bench from the working tree"
"$GO" build -o "$TMP/fourq-bench-head" ./cmd/fourq-bench

echo "bench-compare: exact rows against $BASELINE"
"$TMP/fourq-bench-head" -exp latency,sched -sched portfolio -json "$EXACT_JSON" >/dev/null
"$GO" run ./scripts/benchcheck -baseline "$BASELINE" "$EXACT_JSON"

if [ -n "$(git status --porcelain)" ]; then
    PARENT=HEAD
else
    PARENT=HEAD~1
fi
echo "bench-compare: building fourq-bench at the parent ($PARENT = $(git rev-parse --short "$PARENT"))"
git worktree add --quiet --detach "$TMP/parent" "$PARENT"
"$GO" -C "$TMP/parent" build -o "$TMP/fourq-bench-parent" ./cmd/fourq-bench

echo "bench-compare: $PAIRS alternating pairs of host-speed runs"
i=0
while [ "$i" -lt "$PAIRS" ]; do
    n=$(printf %02d "$i")
    order="parent head"
    [ $((i % 2)) = 1 ] && order="head parent"
    for side in $order; do
        "$TMP/fourq-bench-$side" -exp latency,throughput,batch -json "$TMP/$side-$n.json" >/dev/null
    done
    i=$((i + 1))
done
"$GO" run ./scripts/benchcheck -tolerance "$TOLERANCE" -parent "$TMP/parent-*.json" "$TMP"/head-*.json

#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the sharded signing service:
# build fourq-serve and fourq-loadgen, boot a 2-shard server, drive it
# with a steady open-loop run (validated against the committed
# BENCH_serve.json baseline when present) and an overload run (which
# must shed with clean 503s while the engine queues never saturate),
# lint the scraped /metrics exposition, then SIGTERM the server and
# require a clean graceful drain (exit 0).
#
# The loadgen scrapes /metrics itself (-metrics-out), so the script has
# no curl/wget dependency. Environment knobs:
#   GO              go binary (default go)
#   SERVE_ADDR      listen address (default 127.0.0.1:7414)
#   STEADY_RPS      offered rate of the steady run (default 300)
#   OVERLOAD_RPS    offered rate of the overload run (default 2500)
#   SERVE_BASELINE  committed baseline report (default BENCH_serve.json)
#   SERVE_TOLERANCE allowed fractional goodput regression (default 0.50:
#                   the steady run's goodput is compared with the
#                   recorded run's as a single pair, and service goodput
#                   on a shared CI host is far noisier than the
#                   process-local RTL benchmarks, so the gate is sized
#                   to catch collapses — a broken dispatch or coalescing
#                   path loses far more than half — without flaking on
#                   scheduler jitter)
#   SERVE_BENCH_OUT when set, copy the steady-run report here (this is
#                   how `make serve-record` refreshes the baseline)
set -eu

GO="${GO:-go}"
TMP="${TMPDIR:-/tmp}"
ADDR="${SERVE_ADDR:-127.0.0.1:7414}"
STEADY_RPS="${STEADY_RPS:-300}"
OVERLOAD_RPS="${OVERLOAD_RPS:-2500}"
BASELINE="${SERVE_BASELINE:-BENCH_serve.json}"
TOLERANCE="${SERVE_TOLERANCE:-0.50}"
STEADY_JSON="$TMP/serve_steady.json"
OVERLOAD_JSON="$TMP/serve_overload.json"
METRICS="$TMP/serve_smoke_metrics.prom"

echo "serve-smoke: building binaries"
"$GO" build -o "$TMP/fourq-serve" ./cmd/fourq-serve
"$GO" build -o "$TMP/fourq-loadgen" ./cmd/fourq-loadgen

echo "serve-smoke: starting fourq-serve on $ADDR"
"$TMP/fourq-serve" -addr "$ADDR" -shards 2 -workers 2 -queue-depth 32 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

echo "serve-smoke: steady run ($STEADY_RPS rps)"
"$TMP/fourq-loadgen" -target "http://$ADDR" -rps "$STEADY_RPS" -duration 3s \
    -wait-ready 30s -json "$STEADY_JSON"
"$GO" run ./scripts/benchcheck "$STEADY_JSON"
if [ -f "$BASELINE" ]; then
    echo "serve-smoke: gating against $BASELINE (tolerance $TOLERANCE)"
    "$GO" run ./scripts/benchcheck -parent "$BASELINE" -tolerance "$TOLERANCE" "$STEADY_JSON"
fi
if [ -n "${SERVE_BENCH_OUT:-}" ]; then
    cp "$STEADY_JSON" "$SERVE_BENCH_OUT"
    echo "serve-smoke: recorded baseline to $SERVE_BENCH_OUT"
fi

echo "serve-smoke: overload run ($OVERLOAD_RPS rps)"
"$TMP/fourq-loadgen" -target "http://$ADDR" -rps "$OVERLOAD_RPS" -duration 2s \
    -mix "scalarmult=4,sign=2,verify=3" -json "$OVERLOAD_JSON" -metrics-out "$METRICS"
"$GO" run ./scripts/benchcheck "$OVERLOAD_JSON"
"$GO" run ./scripts/promlint "$METRICS"

# The load-shedding invariant, read off the server's own counters:
# overload must have shed (admission control engaged) and the engine
# queues must never have rejected a submission (shedding happened
# strictly before saturation).
if grep -q '^serve_shed 0$' "$METRICS"; then
    echo "serve-smoke: FAIL — overload run never shed" >&2
    exit 1
fi
if ! grep -q '^serve_engine_rejected 0$' "$METRICS"; then
    echo "serve-smoke: FAIL — engine backpressure reached through the front door" >&2
    exit 1
fi
for s in 0 1; do
    if ! grep -q "^engine_shard${s}_rejected 0$" "$METRICS"; then
        echo "serve-smoke: FAIL — engine shard $s rejected submissions" >&2
        exit 1
    fi
done

echo "serve-smoke: draining (SIGTERM)"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
echo "serve-smoke: ok"

# Build/test/CI entry points. `make ci` is what the smoke pipeline runs:
# vet + build + race-enabled tests, the benchmark module (perfbench/)
# included (plus a dedicated -race pass over the
# concurrency-heavy engine and fault packages with a higher -count, the
# paths the robustness machinery exercises hardest), a short-budget fuzz
# pass over the arithmetic and recoding differential fuzzers, the
# quickstart example, an end-to-end check that fourq-bench's
# machine-readable output carries real RTL statistics, a healthy
# batch-engine throughput experiment, a reconciled fault-injection
# campaign, a lane-batch smoke (the
# race-enabled engine coalescing tests plus a width-2 lockstep sweep),
# an observability smoke (race-enabled span/flight-recorder tests plus a
# linted end-to-end Prometheus scrape through fourq-sign -metrics),
# a serve smoke (race-enabled tests of the sharded signing service plus
# an end-to-end fourq-loadgen drive of a live fourq-serve: steady run
# gated against the committed BENCH_serve.json, overload run that must
# shed 503s without ever saturating an engine queue, linted /metrics
# scrape, graceful SIGTERM drain),
# a chaos smoke (race-enabled deterministic failure campaigns — a
# poisoned shard, a stalled shard, clock skew, saturation, drain racing
# a fault — against a real in-process server, gated against the
# committed BENCH_chaos.json),
# a scheduler smoke (race-enabled portfolio/tabu tests),
# a fixed-base smoke (race-enabled comb/class-routing tests across the
# stack),
# and finally the perf-regression gate (scripts/bench_compare.sh): a
# fresh latency+sched run on the portfolio schedule solves every row of
# core's program table twice (the processor build and a determinism
# rerun), proves both solvers' programs on the RTL hazard prover, runs
# each compiled row differentially against the library, and its exact
# values (makespans, schedule hashes, cycles/SM, lower bounds, trace op
# counts, ROM sizes, per program row) must equal the committed
# BENCH_rtl.json with zero tolerance (refresh it with `make
# bench-record` after a deliberate change of one); host SM/s is
# compared in interleaved pairs of runs against the change's parent
# commit built in a git worktree: TOLERANCE is the allowed drop of a
# host row's median paired ratio.

GO ?= go
BENCH_JSON ?= /tmp/bench.json
THROUGHPUT_JSON ?= /tmp/throughput.json
BATCH_JSON ?= /tmp/batch.json
FAULTS_JSON ?= /tmp/faults.json
COMPARE_JSON ?= /tmp/bench_compare.json
BENCH_BASELINE ?= BENCH_rtl.json
TOLERANCE ?= 0.10
FUZZTIME ?= 5s
OBS_METRICS ?= /tmp/obs_metrics.prom

SERVE_BASELINE ?= BENCH_serve.json
CHAOS_JSON ?= /tmp/chaos.json
CHAOS_BASELINE ?= BENCH_chaos.json
CHAOS_SEED ?= 1

.PHONY: all build test vet race race-robust fuzz-smoke ci smoke lane-smoke obs-smoke serve-smoke serve-record chaos-smoke chaos-record sched-smoke fixedbase-smoke bench-record bench-compare clean

all: build

build:
	$(GO) build ./...

# perfbench/ is its own module built against this repo's exported API;
# vetting and testing it here catches an API change that would break
# the benchmark.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

test:
	$(GO) test ./...
	$(GO) -C perfbench test ./...

race:
	$(GO) test -race ./...
	$(GO) -C perfbench test -race ./...

# Focused race hunt over the retry/quarantine/breaker machinery and the
# fault injector: repeated runs shake out interleavings a single -race
# pass can miss.
race-robust:
	$(GO) test -race -count=3 ./internal/engine ./internal/fault

# Short-budget fuzz smoke: one representative differential fuzzer per
# package (go's -fuzz accepts a single target per run). Seed corpora in
# testdata/fuzz/ run on every plain `go test`; this adds a few seconds
# of coverage-guided input generation on top.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzArithVsBig$$' -fuzztime=$(FUZZTIME) ./internal/fp
	$(GO) test -run='^$$' -fuzz='^FuzzMulVsBig$$' -fuzztime=$(FUZZTIME) ./internal/fp2
	$(GO) test -run='^$$' -fuzz='^FuzzDecomposeRecodeRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/scalar

# Smoke: README's first command (the quickstart example exits non-zero
# when a check it prints fails), then the bench experiments through
# benchcheck.
smoke: build
	$(GO) run ./examples/quickstart
	$(GO) run ./cmd/fourq-bench -exp latency -json $(BENCH_JSON)
	$(GO) run ./scripts/benchcheck $(BENCH_JSON)
	$(GO) run ./cmd/fourq-bench -exp throughput -json $(THROUGHPUT_JSON)
	$(GO) run ./scripts/benchcheck $(THROUGHPUT_JSON)
	$(GO) run ./cmd/fourq-bench -exp faults -json $(FAULTS_JSON)
	$(GO) run ./scripts/benchcheck $(FAULTS_JSON)

# Lane-batch smoke: the race-enabled coalescing/lockstep engine tests,
# then a cheap width-2 lockstep sweep through the real bench binary so
# CI exercises the -exp batch path end to end (full widths are swept by
# bench-record/bench-compare).
lane-smoke: build
	$(GO) test -race -run 'Lane|Coalesc' -count=1 ./internal/engine ./internal/core ./internal/rtl
	$(GO) run ./cmd/fourq-bench -exp batch -lanes 1,2 -json $(BATCH_JSON)
	$(GO) run ./scripts/benchcheck $(BATCH_JSON)

# Observability smoke: the race-enabled span/flight-recorder/exposition
# tests (including the zero-alloc guarantee of the tracing-disabled hot
# path), then an end-to-end scrape check — fourq-sign writes its
# engine's Prometheus exposition and promlint validates it.
obs-smoke: build
	$(GO) test -race -count=1 -run 'Span|Trace|Flight|Sampling|Prometheus|Handler|DebugMux|Quantile|SumCount|PromName|ZeroAlloc|LaneFill' ./internal/telemetry ./internal/engine
	$(GO) test -count=1 ./scripts/promlint
	$(GO) run ./cmd/fourq-sign -workers 2 -metrics $(OBS_METRICS)
	$(GO) run ./scripts/promlint $(OBS_METRICS)

# Serve smoke: the race-enabled service tests (end-to-end mixed traffic
# against the software oracle, fake-clock drain, malformed-input
# rejection), then the live harness in scripts/serve_smoke.sh — a real
# fourq-serve driven by fourq-loadgen, with the steady run gated against
# the committed BENCH_serve.json and the overload run required to shed
# cleanly before any engine queue saturates.
serve-smoke: build
	$(GO) test -race -count=1 ./internal/serve
	SERVE_BASELINE=$(SERVE_BASELINE) sh ./scripts/serve_smoke.sh

# Chaos smoke: the race-enabled failure campaigns of internal/chaos
# (seed pinned inside the test), then a fresh fourq-chaos run at the
# committed seed — the process exits non-zero on any invariant breach —
# validated by benchcheck alongside the committed BENCH_chaos.json, so
# CI fails if either the live campaign or the recorded baseline stops
# holding the invariants (exactly-once, zero mis-answers,
# shed-before-backpressure, bounded recovery).
chaos-smoke: build
	$(GO) test -race -count=1 ./internal/chaos ./internal/fault
	$(GO) run ./cmd/fourq-chaos -seed $(CHAOS_SEED) -requests 60 -q -json $(CHAOS_JSON)
	$(GO) run ./scripts/benchcheck $(CHAOS_JSON)
	$(GO) run ./scripts/benchcheck $(CHAOS_BASELINE)

# Refresh the committed chaos baseline (validated before it lands).
chaos-record: build
	$(GO) run ./cmd/fourq-chaos -seed $(CHAOS_SEED) -requests 60 -json $(CHAOS_BASELINE)
	$(GO) run ./scripts/benchcheck $(CHAOS_BASELINE)

# Refresh the committed service baseline from a steady loadgen run
# (validated by benchcheck inside the harness before it lands).
serve-record: build
	SERVE_BENCH_OUT=$(SERVE_BASELINE) SERVE_BASELINE=$(SERVE_BASELINE) sh ./scripts/serve_smoke.sh

# Scheduler smoke: the race-enabled portfolio/tabu solver tests. The
# full-budget solves of every program row (deterministic, hazard-proven,
# no worse than the list schedule) are gated by bench-compare.
sched-smoke: build
	$(GO) test -race -count=1 -run 'Portfolio|Tabu|MetricsProgress' ./internal/jobshop ./internal/sched

# Fixed-base smoke: the race-enabled comb tests across every layer
# (recoding, ROM-operand RTL, the comb row of core's program table and
# the table-driven tests over every row, the engine's class-homogeneous
# coalescing, fixed-base-routed signing, the literal SchnorrQ key and
# signature KATs). The comb's portfolio solve, its differential run and
# its win over the variable-base schedule are gated by bench-compare.
fixedbase-smoke: build
	$(GO) test -race -count=1 -run 'FixedBase|Class|Recode|ProgramTable|ProgramID|InjectedLaneStats|ExecutorMatchesInterpreted|ProcessorVerify|KAT' ./internal/scalar ./internal/curve ./internal/trace ./internal/rtl ./internal/core ./internal/engine ./internal/schnorrq ./internal/serve

# Record the committed exact-value baseline: the latency experiment
# (cycles/SM on the portfolio schedule, paper-comparable endo cycles)
# and the sched experiment over every program row (makespans, lower
# bounds, the deterministic portfolio schedule hashes, ROM), validated
# before it lands in the tree.
bench-record: build
	$(GO) run ./cmd/fourq-bench -exp latency,sched -sched portfolio -json $(BENCH_BASELINE)
	$(GO) run ./scripts/benchcheck $(BENCH_BASELINE)

# Perf-regression gate: exact rows against the committed baseline with
# zero tolerance, then host SM/s (latency single-thread, throughput
# peak, batch peak lane) in 10 alternating pairs of runs of this tree
# and of its parent commit; see scripts/bench_compare.sh.
bench-compare: build
	GO=$(GO) sh ./scripts/bench_compare.sh $(BENCH_BASELINE) $(TOLERANCE) $(COMPARE_JSON)

ci: vet build race race-robust fuzz-smoke smoke lane-smoke obs-smoke serve-smoke chaos-smoke sched-smoke fixedbase-smoke bench-compare

clean:
	$(GO) clean ./...
	rm -f $(BENCH_JSON) $(THROUGHPUT_JSON) $(BATCH_JSON) $(FAULTS_JSON) $(COMPARE_JSON) $(OBS_METRICS) $(CHAOS_JSON)

#!/usr/bin/env bash
# The perf regression gate (CI: the perf-gate job).
#
# Two halves:
#
#  1. Self-test — prove the gate machinery can actually catch a
#     slowdown on THIS machine: record a fresh baseline of a fast
#     registered experiment into a temp dir, re-compare with an
#     injected 1000 ms handicap (CAPO_PERF_GATE_HANDICAP_MS) and
#     demand exit 1; then compare clean and demand exit 0. This half
#     always hard-fails: it does not depend on the committed baseline
#     or on cross-machine speed, so there is no excuse for it.
#
#  2. Gate — re-measure the committed BENCH_harness.json recipe and
#     judge it with the paper's CI machinery (normalized cost,
#     CI-disjoint AND ratio past threshold). Advisory by default
#     (prints the verdict table, never fails the build) until enough
#     trajectory data accumulates; pass --enforce to make a
#     regression fatal.
#
# Usage: scripts/perf_gate.sh [build-dir] [--enforce]
set -euo pipefail

BUILD_DIR="build"
ENFORCE=0
for arg in "$@"; do
    case "$arg" in
        --enforce) ENFORCE=1 ;;
        *) BUILD_DIR="$arg" ;;
    esac
done

BENCH="$BUILD_DIR/bench/capo-bench"
BASELINE="BENCH_harness.json"

if [ ! -x "$BENCH" ]; then
    echo "perf_gate: missing $BENCH — build the tree first" >&2
    exit 1
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

echo "== self-test: record a fresh local baseline (tab01, fast)"
"$BENCH" snapshot tab01_metric_catalog \
    --label selftest --repeats 3 --no-overhead --out "$TMP_DIR"

echo "== self-test: an injected 1000 ms slowdown must trip the gate"
set +e
CAPO_PERF_GATE_HANDICAP_MS=1000 \
    "$BENCH" compare --baseline "$TMP_DIR/BENCH_selftest.json" \
    --repeats 3
code=$?
set -e
if [ "$code" -ne 1 ]; then
    echo "FAIL: injected slowdown produced exit $code, expected 1" >&2
    exit 1
fi
echo "ok: handicapped run tripped the gate (exit 1)"

echo "== self-test: a clean re-run must pass"
"$BENCH" compare --baseline "$TMP_DIR/BENCH_selftest.json" --repeats 3
echo "ok: clean run passed the gate (exit 0)"

# Every committed BENCH_*.json is a baseline the trajectory gate
# re-measures (fig01 harness throughput, the fig02 MMU/pause pipeline,
# ...); recording a new experiment snapshot extends the gate with no
# script change.
BASELINES=(BENCH_*.json)
if [ ! -f "${BASELINES[0]}" ]; then
    echo "perf_gate: no committed BENCH_*.json; skipping the" \
         "trajectory gate (record one with: $BENCH snapshot ...)" >&2
    exit 0
fi

GATE_FLAGS=""
if [ "$ENFORCE" -ne 1 ]; then
    GATE_FLAGS="--advisory"
fi
for BASELINE in "${BASELINES[@]}"; do
    echo "== gate: committed $BASELINE vs this tree" \
         "($([ "$ENFORCE" -eq 1 ] && echo enforced || echo advisory))"
    # shellcheck disable=SC2086
    "$BENCH" compare --baseline "$BASELINE" --repeats 5 $GATE_FLAGS
done

# Advisory microbench rows: per-event engine cost, the GC pause
# round-trip (stall -> batch freeze -> fused TTSP+pause compute ->
# batch resume) and the latency summaries (selection quantiles,
# metered latency's ramp walk and its tied-edge sort). Printed for the
# trajectory log; never fails the build — the harness-level gate above
# is the arbiter.
MICRO="$BUILD_DIR/bench/micro_framework"
if [ -x "$MICRO" ]; then
    echo "== advisory: engine step / pause path / latency summary microbenches"
    "$MICRO" --benchmark_filter='BM_EngineStep|BM_PausePath|BM_Quantiles|BM_MeteredLatency' \
        --benchmark_min_time=0.2 || true
fi

echo "perf_gate: OK"

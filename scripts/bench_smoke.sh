#!/usr/bin/env bash
# Registry-driven bench smoke sweep (CI): every experiment that
# `capo-bench --list` reports runs once in quick mode with artifacts
# enabled, and two structural checks make bypassing the registry a
# build failure:
#
#  1. bench/ sources must not write files directly (std::ofstream) —
#     all artifact I/O goes through report::ArtifactSink;
#  2. bench/ builds capo-bench and the micro_* benches; any other
#     binary must be named in the registry listing, so a hand-rolled
#     main cannot dodge the sweep.
#
# The `latency` plan experiment writes one raw per-request CSV per
# cell, so it runs on one workload (jme): its raw CSVs and typed table
# still land, without writing all nine workloads' requests.
#
# Usage: scripts/bench_smoke.sh [build-dir] [artifact-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
ART_DIR="${2:-$(mktemp -d)}"
BENCH="$BUILD_DIR/bench/capo-bench"

if [ ! -x "$BENCH" ]; then
    echo "bench_smoke: missing $BENCH — build the tree first" >&2
    exit 1
fi
mkdir -p "$ART_DIR"

echo "== structural: no direct file I/O in bench/"
if git grep -n "std::ofstream" -- bench/ >/dev/null 2>&1; then
    echo "FAIL: bench/ writes files directly; route it through" \
         "report::ArtifactSink:" >&2
    git grep -n "std::ofstream" -- bench/ >&2
    exit 1
fi

list="$("$BENCH" --list)"
if [ -z "$list" ]; then
    echo "FAIL: capo-bench --list reported no experiments" >&2
    exit 1
fi

echo "== structural: every bench binary is registry-backed"
for exe in "$BUILD_DIR"/bench/*; do
    [ -f "$exe" ] && [ -x "$exe" ] || continue
    name="$(basename "$exe")"
    case "$name" in
        capo-bench|micro_*) continue ;;
    esac
    if ! printf '%s\n' "$list" | grep -qx "$name"; then
        echo "FAIL: bench binary '$name' is not in capo-bench --list" \
             "— it bypasses the experiment registry" >&2
        exit 1
    fi
done

echo "== running $(printf '%s\n' "$list" | wc -l) experiments (quick mode)"
while IFS= read -r name; do
    printf '   %-28s' "$name"
    case "$name" in
        latency) extra="--workloads jme" ;;
        *) extra="" ;;
    esac
    start=$(date +%s)
    if ! "$BENCH" run "$name" $extra --invocations 1 --iterations 1 \
            --artifacts "$ART_DIR" >"$ART_DIR/$name.log" 2>&1; then
        echo "FAIL (log tail follows)"
        tail -n 40 "$ART_DIR/$name.log" >&2
        exit 1
    fi
    # Every experiment must land at least one typed result table.
    if ! find "$ART_DIR/$name" -name '*.csv' 2>/dev/null | grep -q .; then
        echo "FAIL: no result-table artifacts under $ART_DIR/$name" >&2
        exit 1
    fi
    echo "ok ($(( $(date +%s) - start ))s)"
done <<<"$list"

echo "OK: all experiments ran and landed artifacts under $ART_DIR"

#!/usr/bin/env python3
"""Run one Capo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lbo_sweep --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. The script builds perfbench-capo (the
CMake package in this directory, which compiles the capo library from
../src with the release flags) into .bench_build/, measures set-up time
over several short launches, runs the workload's grid over and over for
--seconds of host time, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--write-reference records the seed's result digests into
perfbench/reference/<workload>.txt instead of measuring.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "perfbench-capo")
WORKLOADS = ("lbo_sweep", "latency_synth", "openloop_live")

# Set-up is a few milliseconds, so one launch is noisy: report the
# median over these launches plus the measuring run's own set-up.
SETUP_LAUNCHES = 10

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "runtime.exec_s": "s",
    "runtime.exec_s.serial": "s",
    "runtime.exec_s.parallel": "s",
    "runtime.exec_s.g1": "s",
    "runtime.exec_s.shenandoah": "s",
    "runtime.exec_s.zgc": "s",
    "sim.ns_per_event": "ns",
    "sim.events": "count",
    "sim.timer_ops": "count",
    "gc.pauses": "count",
    "gc.collections": "count",
    "runtime.alloc_stalls": "count",
    "runtime.invocations": "count",
    "runtime.oom_cells": "count",
    "runtime.rate_segments": "count",
    "metrics.metered_s": "s",
    "metrics.quantile_s": "s",
    "metrics.quantile_calls": "count",
    "metrics.sorted_samples": "count",
    "metrics.synth_s": "s",
    "metrics.requests": "count",
    "metrics.lbo_s": "s",
    "load.arrivals": "count",
    "load.completed": "count",
    "load.shed": "count",
    "load.shed_frac": "ratio",
    "load.pacer_decisions": "count",
    "workloads.setup_s": "s",
    "report.write_s": "s",
    "report.bytes": "bytes",
    "bench.closure_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def build():
    """Configure once, then bring perfbench-capo up to date."""
    try:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sys.stderr, check=True)
        jobs = str(min(os.cpu_count() or 1, 8))
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench-capo",
             "-j", jobs],
            stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"build failed: {e}") from e


def launch(args, timeout):
    """Run perfbench-capo and return its last stdout line as JSON."""
    t0_ns = time.monotonic_ns()  # CLOCK_MONOTONIC, as the binary reads
    try:
        proc = subprocess.run(
            [BINARY] + args + ["--t0-ns", str(t0_ns)],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"perfbench-capo did not finish: {e}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"perfbench-capo exited {proc.returncode}")
    return json.loads(lines[-1])


def reference_path(workload):
    return os.path.join(HERE, "reference", f"{workload}.txt")


def measure(opts):
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--trace", str(opts.trace), "--out", OUT_DIR,
              "--reference", reference_path(opts.workload),
              "--cells", str(opts.cells)]
    setups = [launch(common + ["--setup-only"], 60)["setup_s"]
              for _ in range(SETUP_LAUNCHES)]
    raw = launch(common + ["--seconds", str(opts.seconds)],
                 opts.seconds + 150)
    setups.append(raw["setup_s"])

    attempted, failed = raw["attempted"], raw["failed"]
    print(f"{opts.workload} seed {opts.seed}: {raw['sweeps']} sweeps, "
          f"{raw['cell_samples']} cells timed, {raw['cell_tail']} beyond "
          f"p90, failed_frac {failed / attempted:.6g} "
          f"({failed}/{attempted} items), results "
          f"{'judged against' if raw['judged'] else 'unjudged: no'} "
          f"committed reference")
    if opts.trace:
        values = raw["layers"]
        units = PER_LAYER
    else:
        values = dict(raw, setup_s=statistics.median(setups))
        units = END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"perfbench-capo omitted {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cells", type=int, default=0,
                        help="cut the grid to its first N cells (tests)")
    parser.add_argument("--write-reference", action="store_true")
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds < 1 or opts.cells < 0:
        parser.error("--seed and --cells must be >= 0, --seconds >= 1")

    try:
        build()
        os.makedirs(OUT_DIR, exist_ok=True)
        if opts.write_reference:
            subprocess.run(
                [BINARY, "--workload", opts.workload, "--seed",
                 str(opts.seed), "--trace", "0", "--out", OUT_DIR,
                 "--reference", reference_path(opts.workload),
                 "--write-reference"], check=True)
            return 0
        result = measure(opts)
    except (BenchError, subprocess.CalledProcessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

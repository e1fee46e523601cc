#!/usr/bin/env python3
"""Tests of the Capo benchmark itself. Run from the checkout root:

    python3 perfbench/test_run.py

They build perfbench-capo like run.py does and run small cuts of each
grid, so they take well under a minute once the build is done.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DEFAULT_SEED = 24301  # ExperimentOptions::base_seed, with a reference


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_py(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=run.ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def binary(*args):
    return run.launch(["--out", run.OUT_DIR, *args], 120)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.OUT_DIR, exist_ok=True)

    def test_declared_metrics_match_run_py(self):
        spec = benchmark_json()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]},
                             table)

    def test_one_cell_per_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = run_py("--workload", workload, "--seed",
                                    str(DEFAULT_SEED), "--seconds", "1",
                                    "--trace", str(trace), "--cells", "1")
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {name: m["unit"]
                         for name, m in result["metrics"].items()},
                        table)

    def test_hundred_cell_grid_has_ten_samples_beyond_p90(self):
        raw = binary("--workload", "lbo_sweep", "--seed", "3",
                     "--seconds", "0.001", "--trace", "0", "--cells", "100")
        self.assertEqual(raw["sweeps"], 1)
        self.assertEqual(raw["cell_samples"], 100)
        self.assertGreaterEqual(raw["cell_tail"], 10)

    def test_corrupted_reference_raises_failed_frac(self):
        reference = run.reference_path("latency_synth")
        args = ["--workload", "latency_synth", "--seed", str(DEFAULT_SEED),
                "--seconds", "0.001", "--trace", "0", "--cells", "2"]
        good = binary(*args, "--reference", reference)
        self.assertTrue(good["judged"])
        self.assertEqual(good["failed"], 0)

        corrupt = os.path.join(run.OUT_DIR, "corrupt_reference.txt")
        with open(reference) as src, open(corrupt, "w") as dst:
            for line in src:
                fields = line.split()
                if fields and fields[0] == str(DEFAULT_SEED):
                    fields[2] = "%08x" % (int(fields[2], 16) ^ 1)
                    line = " ".join(fields) + "\n"
                dst.write(line)
        bad = binary(*args, "--reference", corrupt)
        self.assertTrue(bad["judged"])
        self.assertGreater(bad["failed"] / bad["attempted"], 0)

    def test_traced_sweeps_reproduce_untraced_digests(self):
        # --trace 1 judges every traced sweep against the first untraced
        # one, so a rebuilt cell that drifts shows up as a failure.
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                raw = binary("--workload", workload, "--seed", "5",
                             "--seconds", "0.001", "--trace", "1",
                             "--cells", "6")
                self.assertEqual(raw["attempted"], 12)
                self.assertEqual(raw["failed"], 0)

    def test_missing_sources_fail_without_a_result(self):
        # A checkout holding only the benchmark must not print a result.
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "lbo_sweep", "--seed", "1", "--seconds", "1"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark itself, at the 32 px ``tiny`` scale.

Run from the repository root::

    python3 perfbench/selftest.py

They check that every workload runs and passes its own correctness
checks, that the traced run's outputs are bit-identical to the
untraced run's, that the printed metric names and units are exactly
those of ``BENCHMARK.json``, that quality repeats exactly for a seed,
and that the benchmark refuses to run without the program sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2", "train", "chip")


def _run(root, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        cls.units = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def _report(self, workload, trace, seed=3):
        proc = _run(ROOT, workload, trace, seed)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(report),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(report["correct"], proc.stdout + proc.stderr)
        self.assertEqual(report["failed"], 0)
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual({name: metric["unit"] for name, metric
                          in report["metrics"].items()}, self.units[trace])
        for name, metric in report["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
        return proc.stdout, report

    def test_workloads_match_spec(self):
        self.assertEqual(sorted(self.workloads), sorted(WORKLOADS))

    def test_smoke_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, report = self._report(workload, 0)
                for name, metric in report["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)

    def test_traced_outputs_match_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stdout, _ = self._report(workload, 1)
                self.assertIn("check traced_matches_untraced: ok", stdout)

    def test_quality_repeats_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self._report(workload, 0, seed=5)[1]["metrics"]
                second = self._report(workload, 0, seed=5)[1]["metrics"]
                self.assertEqual(first["l2_rel"], second["l2_rel"])

    def test_refuses_without_program(self):
        with tempfile.TemporaryDirectory() as root:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
            shutil.copytree(HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          ".work-*"))
            proc = _run(root, "table2", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

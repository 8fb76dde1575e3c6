#!/usr/bin/env python3
"""Tests of the benchmark itself: a tiny run of every workload, traced and
untraced, must pass all its output checks and print exactly the metrics
BENCHMARK.json declares, with their units.

    python3 perfbench/test_perfbench.py

The first run builds the harness (a few minutes); later runs reuse it.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[:-1])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"]
                    for m in SPEC["per_layer" if trace else "end_to_end"]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        report = json.loads(lines[-2])["report"]
        self.assertEqual(report["problems"], [])
        if trace:
            # Metrics a workload does not exercise read 0 and are named.
            for name in report["unmeasured"]:
                self.assertEqual(result["metrics"][name]["value"], 0, name)
        self.assertLessEqual(report["thread_plan"]["threads"], report["nproc"])
        return result["metrics"]

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0)
                self.assertEqual(metrics["success_share"]["value"], 1.0)
                self.assertGreater(metrics["records_per_s"]["value"], 0.0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1)
                for name in ("crf.viterbi_us_per_record",
                             "crf.compile_us_per_miss_line",
                             "whois.line_cache_hit_ratio"):
                    self.assertGreater(metrics[name]["value"], 0.0, name)

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_cache" / f"bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, WORKLOADS[0], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

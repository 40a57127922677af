#!/usr/bin/env python3
"""Smoke test of the fleet-overhead benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json, and dist_fleet, at a tiny size
(--tiny), untraced and traced. Checks that each named metric is emitted with
its unit, that every name is well formed, that the correctness gates
(including the traced/untraced outcome identity) pass, and that the benchmark
refuses to run without the repository's sources. Takes about a minute after the build.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class BenchmarkSpec(unittest.TestCase):
    def test_names_units_and_bounds(self):
        spec = bench_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        for entry in spec["workloads"]:
            self.assertEqual(set(entry), {"name", "why"})
            self.assertLessEqual(len(entry["why"]), 200)
            self.assertNotIn("\n", entry["why"])
        metrics = spec["end_to_end"] + spec["per_layer"]
        names += [m["name"] for m in metrics]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for m in metrics:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)


class TinyRuns(unittest.TestCase):
    def check_result(self, proc, kind):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in bench_spec()[kind]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        record = json.loads(lines[-2][len("perfbench-record "):])
        return record

    def test_every_workload_untraced_and_traced(self):
        # dist_fleet is not in BENCHMARK.json (see README.md) but stays runnable.
        for workload in [w["name"] for w in bench_spec()["workloads"]] + ["dist_fleet"]:
            with self.subTest(workload=workload):
                self.check_result(run(ROOT, workload, 0), "end_to_end")
                record = self.check_result(run(ROOT, workload, 1), "per_layer")
                gates = {g["gate"]: g["ok"] for g in record["harness"]["gates"]}
                self.assertTrue(gates.get("traced_outcomes_equal_untraced"), gates)
                trace = json.loads(Path(record["harness"]["trace_file"]).read_text())
                self.assertTrue(any(e.get("ph") == "X" for e in trace["traceEvents"]))


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory_fails_without_a_result(self):
        base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        bare = (base if base.is_absolute() else ROOT / base) / "perfbench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(bare, "mlp_fleet", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip(), "must print no result")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

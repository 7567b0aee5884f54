#!/usr/bin/env python3
"""Tiny-size smoke test of the repository benchmark.

    python3 perfbench/test_smoke.py

Runs every workload at --size tiny, untraced and traced, and checks that
each run exits 0, reports correct outputs, and prints exactly the metrics
BENCHMARK.json names, each with its unit. A traced run must also write its
Chrome trace. Finally the runner must fail, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark itself.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        result = run(workload, trace)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        lines = result.stdout.strip().split("\n")
        last = json.loads(lines[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"], result.stdout)
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        printed = last["metrics"]
        self.assertEqual(sorted(printed), sorted(m["name"] for m in expected))
        for metric in expected:
            entry = printed[metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(entry["value"], (int, float), metric["name"])
        if trace:
            trace_lines = [l for l in lines if l.startswith("info   trace_file")]
            self.assertEqual(len(trace_lines), 1, result.stdout)
            trace_file = Path(trace_lines[0].split()[-1])
            events = json.loads(trace_file.read_text())["traceEvents"]
            self.assertGreater(len(events), 0)

    def test_workloads(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_build" / "smoke_bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "estate_day",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
            env={"PATH": "/usr/bin:/bin:/usr/local/bin"})
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    unittest.main()

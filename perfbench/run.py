#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sched_day|estate_day|serve_open \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a gsight checkout. The first run configures and
builds the library and the benchmark from source into $CARGO_TARGET_DIR
(default .bench_build); later runs only rebuild what changed. The run's
own output is passed through; its last line is one JSON object with the
keys correct, attempted, failed and metrics. Before it is printed, the
metric names and units are checked against BENCHMARK.json: an untraced
run must print exactly the end-to-end metrics, a traced run exactly the
per-layer ones. Exits non-zero, printing no result, if the build fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent
# A run must end within 180 s; the binary is stopped before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(directory):
    """Configure once, then build the benchmark target; logs go to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (directory / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(directory), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            return False
    return True


def expected_metrics(traced):
    """name -> unit of the metrics BENCHMARK.json expects, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(result, traced):
    """Problems with the final JSON line (empty when it is well formed)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    expected = expected_metrics(traced)
    if expected is None:
        return problems
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name, unit in expected.items():
        if name not in printed:
            problems.append("metric %s is not printed" % name)
        elif printed[name] != unit:
            problems.append("metric %s has unit %s, expected %s"
                            % (name, printed[name], unit))
    for name in printed:
        if name not in expected:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sched_day", "estate_day", "serve_open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    directory = build_dir()
    if not build(directory):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    command = [str(directory / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--size", args.size,
               "--out-dir", str(directory / "out")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: %s did not finish within %d s"
              % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 4
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(run.stdout)
        print("perfbench: %s printed no result (exit %d)"
              % (args.workload, run.returncode), file=sys.stderr)
        return run.returncode or 5

    problems = check_result(result, args.trace == "1")
    for line in lines[:-1]:
        print(line)
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    if problems and run.returncode == 0:
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

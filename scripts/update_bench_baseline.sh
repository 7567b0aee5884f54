#!/usr/bin/env bash
# Regenerate bench/BENCH_micro_baseline.json — the committed floor for the
# check.sh stage-5c forest-inference perf guard: the batched/legacy
# inference ratio measured by scripts/forest_inference_ratio.sh. Run this
# (and commit the result) only when a deliberate kernel change moves the
# number; the guard exists so accidental regressions cannot ride in
# silently.
#
# Usage: scripts/update_bench_baseline.sh [BUILD_DIR]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-$ROOT/build}"

cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 4)" --target bench_micro
ratio=$("$ROOT/scripts/forest_inference_ratio.sh" "$BUILD/bench/bench_micro" \
  "$ROOT/bench/BENCH_micro_baseline.json")
echo "baseline batched/legacy ratio $ratio written to bench/BENCH_micro_baseline.json"

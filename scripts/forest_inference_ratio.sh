#!/usr/bin/env bash
# Measure the forest-inference ratio that check.sh stage 5c gates on:
# the median CPU time of 9 interleaved repetitions of
# BM_ForestPredictBatched divided by the median CPU time of
# BM_ForestPredictLegacy from the same run. Both walk the same 80-tree,
# 2580-dim forest over the same 32 queries, so the reference cancels host
# speed, and CPU time (not wall time) leaves out the slices a loaded host
# spends running something else. On a 4-core 2.1 GHz host, five
# single-shot wall times of the batched kernel on an unchanged tree gave
# 112 to 262 us; with four busy loops competing for the cores, the wall
# time ratio swung from 0.26 to 0.57 while the CPU time ratio stayed
# between 0.33 and 0.42.
#
# Writes a gsight-bench-report/v1 file holding the two medians and their
# ratio, and prints the ratio.
#
# The repetition count is fixed so that the gate and the committed baseline
# always measure the same way.
#
# Usage: scripts/forest_inference_ratio.sh BENCH_MICRO OUT_JSON
set -euo pipefail

BENCH_MICRO="$1"
OUT="$2"
readonly REPS=9
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

GSIGHT_THREADS=1 GSIGHT_BENCH_DIR="$TMP" "$BENCH_MICRO" \
  --benchmark_min_time=0.05 \
  --benchmark_repetitions="$REPS" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_filter='BM_ForestPredict(Batched|Legacy)$' \
  --benchmark_out="$TMP/gbench.json" --benchmark_out_format=json \
  > "$TMP/bench.log" 2>&1 || { cat "$TMP/bench.log" >&2; exit 1; }

# cpu_time of the named entry in google-benchmark's own JSON output.
cpu_us() {
  awk -v name="\"name\": \"$1\"" '
    index($0, name) { found = 1 }
    found && /"cpu_time"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }
  ' "$TMP/gbench.json"
}
batched=$(cpu_us BM_ForestPredictBatched_median)
legacy=$(cpu_us BM_ForestPredictLegacy_median)
wall=$(grep '"wall_time_s"' "$TMP/BENCH_micro.json" | grep -o '[0-9][0-9.eE+-]*')
[[ -n "$batched" && -n "$legacy" && -n "$wall" ]] \
  || { echo "forest_inference_ratio: medians missing from the report" >&2; exit 1; }
ratio=$(awk -v b="$batched" -v l="$legacy" 'BEGIN { printf "%.6f", b / l }')

cat > "$OUT" <<EOF
{
  "schema": "gsight-bench-report/v1",
  "bench": "micro",
  "wall_time_s": $wall,
  "results": [
    {
      "name": "BM_ForestPredictBatched_cpu_median",
      "value": $batched,
      "unit": "us"
    },
    {
      "name": "BM_ForestPredictLegacy_cpu_median",
      "value": $legacy,
      "unit": "us"
    },
    {
      "name": "BM_ForestPredictBatched_over_Legacy",
      "value": $ratio,
      "unit": "ratio"
    }
  ]
}
EOF
echo "$ratio"

#!/usr/bin/env bash
# check.sh — the repo's full correctness gate. Runs, in order:
#   1. gsight_lint (determinism/hygiene linter) + its self-test
#   2. clang-tidy over src/ with -warnings-as-errors='*' (skipped with a
#      notice when not installed)
#   2b. gsight_analyze: seeded-violation self-tests for every pass, then
#      the full-tree run (layering, determinism, lock-discipline,
#      hot-alloc) which must come back clean
#   2c. clang -Wthread-safety build (-DGSIGHT_THREAD_SAFETY=ON with
#      -Werror=thread-safety; skipped with a notice when clang++ is not
#      installed)
#   3. ASan+UBSan build + the entire ctest suite
#   4. TSan build + the thread-pool / forest / trainer / campaign /
#      predictor-refresh / serve / shard tests (the multi-threaded code
#      paths)
#   5. bench smoke: run bench_micro with RunReport enabled and validate
#      the emitted BENCH_micro.json with tools/bench_schema_check
#   5b. model kernels: forest train and predict
#      benchmarks and the serving-layer inference kernels under
#      GSIGHT_THREADS=1, schema-checked like any bench
#   5c. forest-inference perf guard: the median CPU time of repeated
#      BM_ForestPredictBatched runs over the in-run BM_ForestPredictLegacy
#      median, against the same ratio in the committed
#      bench/BENCH_micro_baseline.json — fails when the fresh ratio is
#      > 1.25x the committed one (skips with a notice when the baseline
#      file is absent)
#   6. campaign-equivalence: `gsight campaign` serial vs parallel sample
#      dumps must be byte-identical (the determinism contract of
#      core::CampaignRunner, DESIGN.md §9)
#   6b. shard-equivalence: `gsight campaign --shards N` 1-lane serial vs
#      8-lane thread-pooled estate dumps must be byte-identical (the
#      determinism contract of sim::ShardedEngine, DESIGN.md §13); then
#      bench_shard_scaling must report byte-identical digests across its
#      lane counts and its pooled run (its exit status; no timing bound)
#   6c. cloning twin-run: the same estate with request cloning, cross-cell
#      clone pairs and processor-sharing servers — cancel-on-first-complete
#      events cross shard mailboxes and must still replay byte-identically
#      for any lane/thread count (DESIGN.md §16)
#   7. serve smoke: short `gsight serve-bench` runs. The synchronous twin
#      (--threads 0) must emit byte-identical BENCH_serve.json across two
#      runs (modulo wall_time_s) with at least one hot swap; the threaded
#      run must schema-check and hot-swap under load too; fleet-only flags
#      (--drain/--live/--live-every) without --fleet must be rejected
#   7b. fleet twin-run: `gsight serve-bench --fleet 4` with a mid-run
#      drain + re-add and the live NDJSON stream on, run twice. The
#      BENCH_serve_fleet.json reports must match modulo wall_time_s, the
#      live streams must be byte-identical, the stream must satisfy the
#      gsight-live/v1 schema, and no request may be lost across the
#      re-shard. A deterministic admission-bound capacity run then checks
#      the 4-replica fleet serves >= 3x the single-service throughput
#
# Each stage gets its own build tree under build-check/ so the developer's
# main build/ directory is never clobbered. Warnings are errors everywhere.
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the sanitizer stages (static analysis stages 1-2c only)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

banner() { printf '\n=== %s ===\n' "$*"; }

configure_build() {
  # configure_build <dir> <extra cmake args...>
  local dir="$1"; shift
  cmake -B "$dir" -S "$ROOT" -DGSIGHT_WERROR=ON \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@" > "$dir.configure.log" 2>&1 \
    || { cat "$dir.configure.log"; return 1; }
  cmake --build "$dir" -j "$JOBS" > "$dir.build.log" 2>&1 \
    || { tail -n 60 "$dir.build.log"; return 1; }
}

# --- 1. Lint ---------------------------------------------------------------
banner "gsight_lint"
LINT_DIR="$ROOT/build-check/lint"
mkdir -p "$ROOT/build-check"
cmake -B "$LINT_DIR" -S "$ROOT" -DGSIGHT_WERROR=ON \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > "$LINT_DIR.configure.log" 2>&1
cmake --build "$LINT_DIR" -j "$JOBS" --target gsight_lint gsight_analyze \
      > "$LINT_DIR.build.log" 2>&1 || { tail -n 40 "$LINT_DIR.build.log"; exit 1; }
"$LINT_DIR/tools/gsight_lint" --self-test
"$LINT_DIR/tools/gsight_lint" "$ROOT"

# --- 2. clang-tidy ---------------------------------------------------------
banner "clang-tidy"
if command -v clang-tidy > /dev/null 2>&1; then
  mapfile -t TIDY_SOURCES < <(find "$ROOT/src" -name '*.cpp' | sort)
  # Gate, not advice: any finding from the .clang-tidy profile fails the
  # run (the profile itself documents which checks are excluded and why).
  clang-tidy -p "$LINT_DIR/compile_commands.json" --quiet \
    -warnings-as-errors='*' "${TIDY_SOURCES[@]}"
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi

# --- 2b. gsight_analyze ----------------------------------------------------
banner "gsight_analyze: pass self-tests + full-tree run"
"$LINT_DIR/tools/gsight_analyze" --self-test
"$LINT_DIR/tools/gsight_analyze" --dump-graph "$LINT_DIR/include-graph.json" "$ROOT"
echo "include graph dumped to $LINT_DIR/include-graph.json"

# --- 2c. clang thread-safety -----------------------------------------------
# The GSIGHT_GUARDED_BY / GSIGHT_REQUIRES annotations are only *analysed*
# by clang; this stage compiles the tree with -Wthread-safety promoted to
# an error. Only thread-safety diagnostics are fatal here — unrelated
# clang warnings must not break a gate that GCC-only developers cannot
# reproduce locally.
banner "clang -Wthread-safety build"
if command -v clang++ > /dev/null 2>&1; then
  TSAFE_DIR="$ROOT/build-check/thread-safety"
  cmake -B "$TSAFE_DIR" -S "$ROOT" -DCMAKE_CXX_COMPILER=clang++ \
        -DGSIGHT_THREAD_SAFETY=ON \
        -DCMAKE_CXX_FLAGS="-Werror=thread-safety" \
        > "$TSAFE_DIR.configure.log" 2>&1 \
    || { cat "$TSAFE_DIR.configure.log"; exit 1; }
  cmake --build "$TSAFE_DIR" -j "$JOBS" > "$TSAFE_DIR.build.log" 2>&1 \
    || { tail -n 60 "$TSAFE_DIR.build.log"; exit 1; }
  echo "clang thread-safety build clean"
else
  echo "clang++ not installed; skipping (the gsight_analyze lock-discipline"
  echo "pass above still enforces annotation coverage)"
fi

if [[ "$FAST" == "1" ]]; then
  banner "--fast: skipping sanitizer stages"
  exit 0
fi

# --- 3. ASan + UBSan -------------------------------------------------------
banner "ASan+UBSan build + full ctest"
ASAN_DIR="$ROOT/build-check/asan"
configure_build "$ASAN_DIR" "-DGSIGHT_SANITIZE=address;undefined"
# halt_on_error so UBSan findings fail the run instead of just printing.
( cd "$ASAN_DIR" && \
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --output-on-failure -j "$JOBS" )

# --- 4. TSan ---------------------------------------------------------------
banner "TSan build + threaded tests"
TSAN_DIR="$ROOT/build-check/tsan"
configure_build "$TSAN_DIR" "-DGSIGHT_SANITIZE=thread"
# The multi-threaded surface: ThreadPool itself plus its users (forest
# training/inference, incremental models, trainer, campaigns), the
# predictor's background refresh, and the online serving stack (workers,
# background trainer, snapshot hot swap, fleet routing/drain).
( cd "$TSAN_DIR" && \
  TSAN_OPTIONS=halt_on_error=1 \
  ctest --output-on-failure -j "$JOBS" \
        -R 'ThreadPool|Forest|Incremental|Trainer|Campaign|PredictorRefresh|Serve|Fleet|Shard|Clon|ProcessorSharing' )

# --- 5. Bench smoke --------------------------------------------------------
banner "bench smoke: bench_micro -> BENCH_micro.json -> bench_schema_check"
BENCH_DIR="$ROOT/build-check/bench"
cmake -B "$BENCH_DIR" -S "$ROOT" -DGSIGHT_WERROR=ON \
      > "$BENCH_DIR.configure.log" 2>&1 \
  || { cat "$BENCH_DIR.configure.log"; exit 1; }
cmake --build "$BENCH_DIR" -j "$JOBS" --target bench_micro bench_schema_check \
      > "$BENCH_DIR.build.log" 2>&1 || { tail -n 40 "$BENCH_DIR.build.log"; exit 1; }
SMOKE_DIR="$BENCH_DIR/smoke"
rm -rf "$SMOKE_DIR" && mkdir -p "$SMOKE_DIR"
# NOTE: the installed google-benchmark wants a plain double for
# --benchmark_min_time (no "0.01s" suffix form).
GSIGHT_BENCH_DIR="$SMOKE_DIR" "$BENCH_DIR/bench/bench_micro" \
  --benchmark_min_time=0.01 \
  --benchmark_filter='BM_EventQueueThroughput|BM_EncoderEncode'
[[ -f "$SMOKE_DIR/BENCH_micro.json" ]] \
  || { echo "bench smoke: BENCH_micro.json was not written"; exit 1; }
"$BENCH_DIR/tools/bench_schema_check" "$SMOKE_DIR/BENCH_micro.json"

# --- 5b. Model-kernel bench ------------------------------------------------
# Forest training (kRandom and kBest) and the predict paths (the per-tree
# walk and the flattened singles and batch), pinned to one thread so the
# numbers measure the kernels, not the pool.
# Their RunReport must satisfy the same schema as every other bench.
banner "model kernels: forest train/predict"
KERNEL_DIR="$BENCH_DIR/model-kernels"
rm -rf "$KERNEL_DIR" && mkdir -p "$KERNEL_DIR"
GSIGHT_THREADS=1 GSIGHT_BENCH_DIR="$KERNEL_DIR" "$BENCH_DIR/bench/bench_micro" \
  --benchmark_min_time=0.01 \
  --benchmark_filter='BM_ForestTrain|BM_ForestPredict(Legacy|Singles|Batched)|BM_ServePredict|BM_ServeFleetRouted'
[[ -f "$KERNEL_DIR/BENCH_micro.json" ]] \
  || { echo "model kernels: BENCH_micro.json was not written"; exit 1; }
"$BENCH_DIR/tools/bench_schema_check" "$KERNEL_DIR/BENCH_micro.json"

# --- 5c. Forest-inference perf guard ----------------------------------------
# The batched forest traversal is the scheduler's per-placement cost; a
# regression here silently stretches every SLA sweep. The gated number is
# a ratio measured by scripts/forest_inference_ratio.sh: the median CPU
# time of interleaved BM_ForestPredictBatched repetitions over that of the
# legacy tree walk on the same forest in the same run, so host speed and
# load cancel out. The committed baseline (bench/BENCH_micro_baseline.json,
# regenerated with scripts/update_bench_baseline.sh when a deliberate
# change moves the number) holds the same ratio; a fresh ratio > 1.25x
# the committed one fails the gate.
banner "forest-inference perf guard: batched/legacy ratio vs committed baseline"
report_value() {
  grep -A1 "\"name\": \"$2\"" "$1" | grep '"value"' \
    | grep -o '[0-9][0-9.eE+-]*' | head -n 1
}
BASELINE="$ROOT/bench/BENCH_micro_baseline.json"
if [[ -f "$BASELINE" ]]; then
  GUARD_DIR="$BENCH_DIR/perf-guard"
  rm -rf "$GUARD_DIR" && mkdir -p "$GUARD_DIR"
  fresh_ratio=$("$ROOT/scripts/forest_inference_ratio.sh" \
    "$BENCH_DIR/bench/bench_micro" "$GUARD_DIR/BENCH_micro.json")
  "$BENCH_DIR/tools/bench_schema_check" "$GUARD_DIR/BENCH_micro.json"
  base_ratio=$(report_value "$BASELINE" BM_ForestPredictBatched_over_Legacy)
  [[ -n "$fresh_ratio" && -n "$base_ratio" ]] \
    || { echo "perf guard: batched/legacy ratio missing from report or baseline"; exit 1; }
  awk -v f="$fresh_ratio" -v b="$base_ratio" 'BEGIN {
    ratio = f / b
    printf "batched/legacy: fresh %.3f vs baseline %.3f (%.2fx)\n", f, b, ratio
    exit (ratio <= 1.25 ? 0 : 1)
  }' || { echo "perf guard: batched forest inference regressed > 1.25x"; exit 1; }
else
  echo "bench/BENCH_micro_baseline.json not committed; skipping perf guard"
fi

# --- 6. Campaign equivalence -----------------------------------------------
banner "campaign-equivalence: serial vs parallel sample streams"
cmake --build "$BENCH_DIR" -j "$JOBS" --target gsight_cli \
      > "$BENCH_DIR.cli.log" 2>&1 || { tail -n 40 "$BENCH_DIR.cli.log"; exit 1; }
EQ_DIR="$BENCH_DIR/campaign-eq"
rm -rf "$EQ_DIR" && mkdir -p "$EQ_DIR"
# Same seed, same scenario count; only the thread count differs. The dumps
# are hexfloat-exact, so cmp catches any bit-level divergence.
"$BENCH_DIR/tools/gsight" campaign --threads 1 --seed 4242 --count 8 \
  --dump "$EQ_DIR/serial.dump" > /dev/null
"$BENCH_DIR/tools/gsight" campaign --threads 8 --seed 4242 --count 8 \
  --dump "$EQ_DIR/parallel.dump" > /dev/null
cmp "$EQ_DIR/serial.dump" "$EQ_DIR/parallel.dump" \
  || { echo "campaign-equivalence: serial/parallel dumps differ"; exit 1; }
echo "serial and parallel campaign dumps are byte-identical"

# --- 6b. Shard equivalence ---------------------------------------------------
banner "shard-equivalence: 1-lane serial vs 8-lane thread-pooled estate"
SHARD_DIR="$BENCH_DIR/shard-eq"
rm -rf "$SHARD_DIR" && mkdir -p "$SHARD_DIR"
# Same 8-cell estate advanced two ways: one lane serially, eight lanes on
# the thread pool. The merged per-cell digests are hexfloat-exact, so cmp
# catches any divergence in event order, RNG streams or mailbox replay.
"$BENCH_DIR/tools/gsight" campaign --shards 1 --threads 1 --seed 4242 \
  --clusters 8 --servers 4 --horizon 60 \
  --dump "$SHARD_DIR/lanes1.dump" > /dev/null
"$BENCH_DIR/tools/gsight" campaign --shards 8 --threads 8 --seed 4242 \
  --clusters 8 --servers 4 --horizon 60 \
  --dump "$SHARD_DIR/lanes8.dump" > /dev/null
cmp "$SHARD_DIR/lanes1.dump" "$SHARD_DIR/lanes8.dump" \
  || { echo "shard-equivalence: 1-lane and 8-lane dumps differ"; exit 1; }
echo "1-lane and 8-lane shard dumps are byte-identical"
# The full 256-server estate at 1, 2, 4 and 8 lanes plus an 8-thread pooled
# run: the bench exits non-zero when any digest differs. Only that bit is
# gated; its events/s figures are reported, not bounded.
cmake --build "$BENCH_DIR" -j "$JOBS" --target bench_shard_scaling \
      > "$BENCH_DIR.shard-bench.log" 2>&1 \
  || { tail -n 40 "$BENCH_DIR.shard-bench.log"; exit 1; }
GSIGHT_BENCH_DIR="$SHARD_DIR" "$BENCH_DIR/bench/bench_shard_scaling" \
  > "$SHARD_DIR/bench_shard_scaling.txt" \
  || { cat "$SHARD_DIR/bench_shard_scaling.txt"
       echo "shard bench: digests differ across lane/thread counts"; exit 1; }
echo "bench_shard_scaling digests are byte-identical across lane/thread counts"

# --- 6c. Cloning twin-run ----------------------------------------------------
banner "cloning twin-run: cross-cell clones + PS servers, 1 lane vs 8 lanes"
CLONE_EQ_DIR="$BENCH_DIR/clone-eq"
rm -rf "$CLONE_EQ_DIR" && mkdir -p "$CLONE_EQ_DIR"
# The same estate, but every request fans into two clones, a share of the
# clone pairs crosses cell boundaries, and the servers run processor
# sharing. Cancel-on-first-complete now travels through shard mailboxes, so
# this gate proves retraction events replay byte-identically no matter how
# the lanes are scheduled.
CLONE_ARGS=(--seed 4242 --clusters 8 --servers 4 --horizon 60
            --clone-factor 2 --clone-handoffs --remote 0.3 --ps)
"$BENCH_DIR/tools/gsight" campaign --shards 1 --threads 1 "${CLONE_ARGS[@]}" \
  --dump "$CLONE_EQ_DIR/lanes1.dump" > /dev/null
"$BENCH_DIR/tools/gsight" campaign --shards 8 --threads 8 "${CLONE_ARGS[@]}" \
  --dump "$CLONE_EQ_DIR/lanes8.dump" > /dev/null
cmp "$CLONE_EQ_DIR/lanes1.dump" "$CLONE_EQ_DIR/lanes8.dump" \
  || { echo "cloning twin-run: 1-lane and 8-lane dumps differ"; exit 1; }
echo "cloning twin-run dumps are byte-identical with cross-cell cancels"

# --- 7. Serve smoke ---------------------------------------------------------
banner "serve smoke: serve-bench determinism twin + threaded hot-swap"
SERVE_DIR="$BENCH_DIR/serve-smoke"
rm -rf "$SERVE_DIR" && mkdir -p "$SERVE_DIR/twin1" "$SERVE_DIR/twin2" "$SERVE_DIR/threaded"
SERVE_ARGS=(--requests 3000 --dim 64 --warm 128 --rate 200000 --seed 99)
# Synchronous twin: two identical runs on the virtual clock must produce
# byte-identical reports except for the harness-measured wall_time_s.
"$BENCH_DIR/tools/gsight" serve-bench --threads 0 "${SERVE_ARGS[@]}" \
  --out "$SERVE_DIR/twin1" > /dev/null
"$BENCH_DIR/tools/gsight" serve-bench --threads 0 "${SERVE_ARGS[@]}" \
  --out "$SERVE_DIR/twin2" > /dev/null
grep -v '"wall_time_s"' "$SERVE_DIR/twin1/BENCH_serve.json" > "$SERVE_DIR/twin1.stripped"
grep -v '"wall_time_s"' "$SERVE_DIR/twin2/BENCH_serve.json" > "$SERVE_DIR/twin2.stripped"
cmp "$SERVE_DIR/twin1.stripped" "$SERVE_DIR/twin2.stripped" \
  || { echo "serve smoke: twin serve-bench reports differ"; exit 1; }
echo "synchronous serve-bench twins are byte-identical (modulo wall_time_s)"
# Threaded run: schema-valid report and at least one hot swap under load.
"$BENCH_DIR/tools/gsight" serve-bench --threads 2 "${SERVE_ARGS[@]}" \
  --rate 50000 --out "$SERVE_DIR/threaded" > /dev/null
for report in "$SERVE_DIR/twin1/BENCH_serve.json" "$SERVE_DIR/threaded/BENCH_serve.json"; do
  "$BENCH_DIR/tools/bench_schema_check" "$report"
  grep -q '"name": "hot_swaps_under_load"' "$report" \
    || { echo "serve smoke: $report lacks hot_swaps_under_load"; exit 1; }
  swaps=$(grep -A1 '"name": "hot_swaps_under_load"' "$report" \
          | grep '"value"' | grep -o '[0-9.]\+')
  awk -v s="$swaps" 'BEGIN { exit (s >= 1 ? 0 : 1) }' \
    || { echo "serve smoke: $report reports no hot swap under load"; exit 1; }
done
echo "serve-bench hot-swapped under load in both regimes"
# Fleet-only flags must be rejected without --fleet, not silently ignored.
for fleet_only in "--live-every 4" "--drain 1@10" "--live $SERVE_DIR/unused.ndjson"; do
  # shellcheck disable=SC2086  # split "--flag value" into two words
  if "$BENCH_DIR/tools/gsight" serve-bench --threads 0 "${SERVE_ARGS[@]}" \
       $fleet_only --out "$SERVE_DIR" > /dev/null 2>&1; then
    echo "serve smoke: serve-bench accepted '$fleet_only' without --fleet"; exit 1
  fi
done
echo "fleet-only flags are rejected without --fleet"

# --- 7b. Fleet twin-run ------------------------------------------------------
banner "fleet twin-run: drain/re-shard determinism + live stream + capacity"
FLEET_DIR="$BENCH_DIR/fleet-smoke"
rm -rf "$FLEET_DIR"
mkdir -p "$FLEET_DIR/twin1" "$FLEET_DIR/twin2" "$FLEET_DIR/single" "$FLEET_DIR/cap4"

# Pulls "value" off the line after a '"name": "<metric>"' line, the
# RunReport results layout (same idiom as the hot-swap check above).
bench_value() {
  grep -A1 "\"name\": \"$2\"" "$1" | grep '"value"' \
    | grep -o '[0-9][0-9.eE+-]*' | head -n 1
}

FLEET_ARGS=(--threads 0 --fleet 4 --requests 3000 --dim 64 --warm 128
            --rate 200000 --seed 99 --drain 1@1000:2000)
# Twin runs on the shared virtual clock, with a drain + re-add landing
# mid-run and the live NDJSON stream on. Everything must reproduce: the
# report modulo wall_time_s, and the live stream byte-for-byte.
"$BENCH_DIR/tools/gsight" serve-bench "${FLEET_ARGS[@]}" \
  --live "$FLEET_DIR/twin1/live.ndjson" --out "$FLEET_DIR/twin1" > /dev/null
"$BENCH_DIR/tools/gsight" serve-bench "${FLEET_ARGS[@]}" \
  --live "$FLEET_DIR/twin2/live.ndjson" --out "$FLEET_DIR/twin2" > /dev/null
grep -v '"wall_time_s"' "$FLEET_DIR/twin1/BENCH_serve_fleet.json" > "$FLEET_DIR/twin1.stripped"
grep -v '"wall_time_s"' "$FLEET_DIR/twin2/BENCH_serve_fleet.json" > "$FLEET_DIR/twin2.stripped"
cmp "$FLEET_DIR/twin1.stripped" "$FLEET_DIR/twin2.stripped" \
  || { echo "fleet twin-run: BENCH_serve_fleet.json reports differ"; exit 1; }
cmp "$FLEET_DIR/twin1/live.ndjson" "$FLEET_DIR/twin2/live.ndjson" \
  || { echo "fleet twin-run: live NDJSON streams differ"; exit 1; }
echo "fleet twins are byte-identical (report modulo wall_time_s; stream exact)"
"$BENCH_DIR/tools/bench_schema_check" "$FLEET_DIR/twin1/BENCH_serve_fleet.json"
"$BENCH_DIR/tools/bench_schema_check" --live "$FLEET_DIR/twin1/live.ndjson"
"$BENCH_DIR/tools/gsight" tail "$FLEET_DIR/twin1/live.ndjson" > /dev/null \
  || { echo "fleet twin-run: gsight tail failed on the live stream"; exit 1; }
# Conservation across the re-shard: nothing lost, and the drain + re-add
# actually happened.
lost=$(bench_value "$FLEET_DIR/twin1/BENCH_serve_fleet.json" lost)
drains=$(bench_value "$FLEET_DIR/twin1/BENCH_serve_fleet.json" drains)
readds=$(bench_value "$FLEET_DIR/twin1/BENCH_serve_fleet.json" readds)
awk -v l="$lost" -v d="$drains" -v r="$readds" \
  'BEGIN { exit (l == 0 && d >= 1 && r >= 1 ? 0 : 1) }' \
  || { echo "fleet twin-run: lost=$lost drains=$drains readds=$readds"; exit 1; }
echo "drain/re-shard conserved every request (lost=0, drains=$drains, readds=$readds)"

# Capacity: with queue_capacity < max_batch the synchronous driver can
# only serve on linger deadlines, so per-replica capacity is genuinely
# admission-bound and adding replicas multiplies it. Deterministic, so
# the >= 3x bar cannot flake.
CAP_ARGS=(--threads 0 --requests 20000 --dim 64 --warm 128 --rate 2500000
          --queue 8 --batch 32 --seed 7)
"$BENCH_DIR/tools/gsight" serve-bench "${CAP_ARGS[@]}" \
  --out "$FLEET_DIR/single" > /dev/null
"$BENCH_DIR/tools/gsight" serve-bench "${CAP_ARGS[@]}" --fleet 4 \
  --out "$FLEET_DIR/cap4" > /dev/null
single_rps=$(bench_value "$FLEET_DIR/single/BENCH_serve.json" throughput)
fleet_rps=$(bench_value "$FLEET_DIR/cap4/BENCH_serve_fleet.json" throughput)
awk -v s="$single_rps" -v f="$fleet_rps" \
  'BEGIN { exit (s > 0 && f >= 3 * s ? 0 : 1) }' \
  || { echo "fleet capacity: $fleet_rps rps vs single $single_rps rps (< 3x)"; exit 1; }
echo "fleet-of-4 capacity: $fleet_rps rps vs single $single_rps rps (>= 3x)"

banner "all checks passed"

// Microbenchmarks (google-benchmark) for the kernels on the scheduling
// fast path: overlap-code encoding, forest inference and incremental
// update, interference evaluation, and event-queue throughput.
// A custom reporter mirrors every run into a RunReport, so this binary
// emits BENCH_micro.json like every other bench (validated by
// tools/bench_schema_check in the check.sh smoke stage).
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "common.hpp"
#include "core/encoder.hpp"
#include "ml/incremental_forest.hpp"
#include "ml/random_forest.hpp"
#include "serve/fleet.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "sim/interference.hpp"
#include "stats/rng.hpp"
#include "stats/seed_stream.hpp"
#include "workloads/socialnetwork.hpp"

namespace {

using namespace gsight;

prof::AppProfile synthetic_profile(std::size_t fns, stats::Rng& rng) {
  prof::AppProfile p;
  p.app_name = "synthetic";
  for (std::size_t i = 0; i < fns; ++i) {
    prof::FunctionProfile fp;
    for (auto& m : fp.metrics) m = rng.uniform(0.0, 10.0);
    fp.demand.cores = rng.uniform(0.5, 4.0);
    fp.solo_duration_s = rng.uniform(0.001, 0.05);
    p.functions.push_back(fp);
  }
  return p;
}

core::Scenario synthetic_scenario(const prof::AppProfile& a,
                                  const prof::AppProfile& b,
                                  std::size_t servers, stats::Rng& rng) {
  core::Scenario s;
  s.servers = servers;
  for (const auto* prof : {&a, &b}) {
    core::WorkloadDeployment w;
    w.profile = prof;
    for (std::size_t i = 0; i < prof->functions.size(); ++i) {
      w.fn_to_server.push_back(rng.uniform_index(servers));
    }
    s.workloads.push_back(std::move(w));
  }
  return s;
}

void BM_EncoderEncode(benchmark::State& state) {
  stats::Rng rng(1);
  const auto a = synthetic_profile(9, rng);
  const auto b = synthetic_profile(3, rng);
  const auto scenario = synthetic_scenario(a, b, 8, rng);
  core::Encoder encoder{core::EncoderConfig{}};  // paper-scale: 2580 dims
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(scenario));
  }
}
BENCHMARK(BM_EncoderEncode);

void BM_ForestPredict(benchmark::State& state) {
  stats::Rng rng(2);
  const auto dims = static_cast<std::size_t>(state.range(0));
  ml::Dataset data(dims);
  std::vector<double> x(dims);
  for (int i = 0; i < 500; ++i) {
    for (auto& v : x) v = rng.uniform();
    data.add(x, rng.uniform());
  }
  ml::IncrementalForestConfig cfg;
  cfg.forest.n_trees = 80;
  cfg.forest.tree.split_mode = ml::SplitMode::kRandom;
  ml::IncrementalForest forest(cfg, 1);
  forest.partial_fit(data);
  for (auto& v : x) v = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(x));
  }
}
BENCHMARK(BM_ForestPredict)->Arg(256)->Arg(2580);

// Paper-scale training set: Table-4 dimensionality (2580-dim overlap
// codes) with the deployed Extra-Trees config from core::make_model.
// `threads = 1` keeps the thread pool out of the training timings.
ml::Dataset table4_train_data(std::size_t dims, std::size_t rows,
                              stats::Rng& rng) {
  ml::Dataset data(dims);
  std::vector<double> x(dims);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : x) v = rng.uniform();
    data.add(x, rng.uniform());
  }
  return data;
}

ml::ForestConfig deployed_forest_config(ml::SplitMode mode) {
  ml::ForestConfig cfg;
  cfg.n_trees = 8;
  cfg.threads = 1;
  cfg.tree.split_mode = mode;
  cfg.tree.max_depth = 22;
  cfg.tree.min_samples_leaf = 2;
  cfg.tree.max_features = 128;
  return cfg;
}

// Forest training, kRandom (the deployed split mode) at full 2580-dim
// scale and kBest at a presortable width.
void BM_ForestTrain(benchmark::State& state, ml::SplitMode mode,
                    std::size_t dims) {
  stats::Rng data_rng(7);
  const auto data = table4_train_data(dims, 500, data_rng);
  const auto cfg = deployed_forest_config(mode);
  std::uint64_t seed = 11;
  for (auto _ : state) {
    ml::RandomForestRegressor forest(cfg);
    stats::Rng rng(seed++);
    forest.fit(data, rng);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
void BM_ForestTrainColumnar(benchmark::State& state) {
  BM_ForestTrain(state, ml::SplitMode::kRandom, 2580);
}
BENCHMARK(BM_ForestTrainColumnar)->Unit(benchmark::kMillisecond);
void BM_ForestTrainBestColumnar(benchmark::State& state) {
  BM_ForestTrain(state, ml::SplitMode::kBest, 256);
}
BENCHMARK(BM_ForestTrainBestColumnar)->Unit(benchmark::kMillisecond);

// Legacy inference (per-tree node-vector walks, the pre-flattening
// forest predict) against the flattened layouts: single predict() calls
// and the predict_batch API — the shape of query batch the placement
// fast path in GsightScheduler::sla_ok issues.
enum class PredictPath { kTreeWalk, kFlatSingles, kFlatBatch };

void BM_ForestPredictImpl(benchmark::State& state, PredictPath path) {
  stats::Rng rng(19);
  const std::size_t dims = 2580;
  const auto data = table4_train_data(dims, 500, rng);
  auto cfg = deployed_forest_config(ml::SplitMode::kRandom);
  cfg.n_trees = 80;  // deployed ensemble size (core::make_model)
  ml::RandomForestRegressor forest(cfg);
  stats::Rng fit_rng(23);
  forest.fit(data, fit_rng);
  ml::Matrix queries(0, dims);
  std::vector<double> x(dims);
  for (int i = 0; i < 32; ++i) {
    for (auto& v : x) v = rng.uniform();
    queries.push_row(x);
  }
  for (auto _ : state) {
    switch (path) {
      case PredictPath::kTreeWalk: {
        double acc = 0.0;
        const auto trees = forest.trees();
        for (std::size_t r = 0; r < queries.rows(); ++r) {
          double sum = 0.0;
          for (const auto& tree : trees) sum += tree.predict(queries.row(r));
          acc += sum / static_cast<double>(trees.size());
        }
        benchmark::DoNotOptimize(acc);
        break;
      }
      case PredictPath::kFlatSingles: {
        double acc = 0.0;
        for (std::size_t r = 0; r < queries.rows(); ++r) {
          acc += forest.predict(queries.row(r));
        }
        benchmark::DoNotOptimize(acc);
        break;
      }
      case PredictPath::kFlatBatch:
        benchmark::DoNotOptimize(forest.predict_batch(queries));
        break;
    }
  }
}
void BM_ForestPredictLegacy(benchmark::State& state) {
  BM_ForestPredictImpl(state, PredictPath::kTreeWalk);
}
BENCHMARK(BM_ForestPredictLegacy)->Unit(benchmark::kMicrosecond);
void BM_ForestPredictSingles(benchmark::State& state) {
  BM_ForestPredictImpl(state, PredictPath::kFlatSingles);
}
BENCHMARK(BM_ForestPredictSingles)->Unit(benchmark::kMicrosecond);
void BM_ForestPredictBatched(benchmark::State& state) {
  BM_ForestPredictImpl(state, PredictPath::kFlatBatch);
}
BENCHMARK(BM_ForestPredictBatched)->Unit(benchmark::kMicrosecond);

// Serving-layer inference kernels: what the micro-batching queue costs
// relative to raw model calls, and what it buys under trainer contention.
// All three use the same trained incremental forest at Table-4 scale and
// the same 32-request sweep as BM_ForestPredict*:
//
//   Singles   — 32 direct predict() calls, single-threaded: the naive
//               per-request serving baseline.
//   Batch     — the same 32 requests through the synchronous service
//               (bounded queue + micro-batch + predict_batch): queue and
//               dispatch overhead on top of the batched fast path.
//   Contended — the threaded service with workers batching while the
//               background trainer keeps folding observations and
//               hot-swapping snapshots: the production shape.
ml::IncrementalForest serve_bench_model(std::size_t dims) {
  stats::Rng rng(29);
  ml::Dataset data(dims);
  std::vector<double> x(dims);
  for (int i = 0; i < 500; ++i) {
    for (auto& v : x) v = rng.uniform();
    data.add(x, rng.uniform());
  }
  ml::IncrementalForestConfig cfg;
  cfg.forest.n_trees = 80;
  cfg.forest.tree.split_mode = ml::SplitMode::kRandom;
  cfg.forest.tree.max_features = 128;
  ml::IncrementalForest forest(cfg, 1);
  forest.partial_fit(data);
  return forest;
}

std::vector<std::vector<double>> serve_bench_queries(std::size_t dims,
                                                     std::size_t n) {
  stats::Rng rng(31);
  std::vector<std::vector<double>> queries(n, std::vector<double>(dims));
  for (auto& q : queries) {
    for (auto& v : q) v = rng.uniform();
  }
  return queries;
}

constexpr std::size_t kServeDims = 2580;
constexpr std::size_t kServeSweep = 32;

void BM_ServePredictSingles(benchmark::State& state) {
  const auto model = serve_bench_model(kServeDims);
  const auto queries = serve_bench_queries(kServeDims, kServeSweep);
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& q : queries) acc += model.predict(q);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ServePredictSingles)->Unit(benchmark::kMicrosecond);

void BM_ServePredictBatchService(benchmark::State& state) {
  serve::ServiceConfig cfg;
  cfg.feature_dim = kServeDims;
  cfg.max_batch = kServeSweep;
  cfg.worker_threads = 0;  // synchronous: the caller is the batcher
  serve::PredictionService service(cfg, serve_bench_model(kServeDims));
  service.start();
  const auto queries = serve_bench_queries(kServeDims, kServeSweep);
  for (auto _ : state) {
    for (const auto& q : queries) {
      service.submit(std::vector<double>(q), nullptr);
    }
    std::size_t served = 0;
    while (served < kServeSweep) served += service.poll();
    benchmark::DoNotOptimize(served);
  }
}
BENCHMARK(BM_ServePredictBatchService)->Unit(benchmark::kMicrosecond);

void BM_ServePredictBatchContended(benchmark::State& state) {
  serve::ServiceConfig cfg;
  cfg.feature_dim = kServeDims;
  cfg.max_batch = kServeSweep;
  cfg.worker_threads = 2;
  cfg.train_batch = 64;  // every other sweep triggers a background round
  serve::PredictionService service(cfg, serve_bench_model(kServeDims));
  service.start();
  const auto queries = serve_bench_queries(kServeDims, kServeSweep);
  stats::Rng label_rng(37);
  for (auto _ : state) {
    std::atomic<std::size_t> done{0};
    for (const auto& q : queries) {
      service.observe(std::vector<double>(q), label_rng.uniform());
      service.submit(std::vector<double>(q),
                     [&done](const serve::PredictResult&) {
                       done.fetch_add(1, std::memory_order_release);
                     });
    }
    while (done.load(std::memory_order_acquire) < kServeSweep) {
      std::this_thread::yield();
    }
  }
  state.counters["snapshot_swaps"] =
      static_cast<double>(service.stats().snapshot_swaps);
  service.stop();
}
BENCHMARK(BM_ServePredictBatchContended)->Unit(benchmark::kMicrosecond);

// The same 32-request sweep through a 4-replica routed fleet (synchronous
// regime, consistent-hash router): route + per-replica queue + micro-batch
// on top of the batched fast path — the fleet tax over BatchService.
void BM_ServeFleetRouted(benchmark::State& state) {
  serve::FleetRequest fr;
  fr.replicas = 4;
  fr.service.feature_dim = kServeDims;
  fr.service.max_batch = kServeSweep;
  fr.service.worker_threads = 0;  // synchronous: the caller polls
  serve::PredictionFleet fleet(fr, serve_bench_model(kServeDims));
  fleet.start();
  const auto queries = serve_bench_queries(kServeDims, kServeSweep);
  for (auto _ : state) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      fleet.submit(i, std::vector<double>(queries[i]), nullptr);
    }
    std::size_t served = 0;
    while (served < kServeSweep) served += fleet.poll();
    benchmark::DoNotOptimize(served);
  }
  state.counters["watermark"] = static_cast<double>(fleet.watermark());
  fleet.stop();
}
BENCHMARK(BM_ServeFleetRouted)->Unit(benchmark::kMicrosecond);

// Router overhead in isolation (ROADMAP item 5 follow-up): one route()
// decision per iteration, no replica behind it. The hash policy walks the
// ring (binary search over replicas * vnodes points); least-queued scans
// the depth vector. Sweeping 1/4/16 replicas shows how each policy's
// per-request tax scales with fleet width.
void BM_ServeRouterImpl(benchmark::State& state, serve::RouterPolicy policy) {
  const auto replicas = static_cast<std::size_t>(state.range(0));
  serve::Router router(policy, replicas, /*vnodes_per_replica=*/64);
  std::vector<std::size_t> depths(replicas);
  stats::Rng rng(11);
  for (auto& d : depths) d = rng.uniform_index(32);
  std::uint64_t key = 0;
  for (auto _ : state) {
    const auto choice = router.route(++key, depths);
    benchmark::DoNotOptimize(choice);
  }
}
void BM_ServeRouterHash(benchmark::State& state) {
  BM_ServeRouterImpl(state, serve::RouterPolicy::kConsistentHash);
}
BENCHMARK(BM_ServeRouterHash)->Arg(1)->Arg(4)->Arg(16);
void BM_ServeRouterLeastQueued(benchmark::State& state) {
  BM_ServeRouterImpl(state, serve::RouterPolicy::kLeastQueued);
}
BENCHMARK(BM_ServeRouterLeastQueued)->Arg(1)->Arg(4)->Arg(16);

void BM_ForestIncrementalUpdate(benchmark::State& state) {
  stats::Rng rng(3);
  const std::size_t dims = 2580;
  ml::Dataset data(dims);
  std::vector<double> x(dims);
  for (int i = 0; i < 500; ++i) {
    for (auto& v : x) v = rng.uniform();
    data.add(x, rng.uniform());
  }
  ml::IncrementalForestConfig cfg;
  cfg.forest.n_trees = 80;
  cfg.forest.tree.split_mode = ml::SplitMode::kRandom;
  ml::IncrementalForest forest(cfg, 1);
  forest.partial_fit(data);
  ml::Dataset batch(dims);
  for (int i = 0; i < 32; ++i) {
    for (auto& v : x) v = rng.uniform();
    batch.add(x, rng.uniform());
  }
  for (auto _ : state) {
    forest.partial_fit(batch);
  }
}
BENCHMARK(BM_ForestIncrementalUpdate)->Unit(benchmark::kMillisecond);

void BM_InterferenceEvaluate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::InterferenceModel model;
  const auto server = sim::ServerConfig::socket();
  std::vector<wl::Phase> phases;
  for (std::size_t i = 0; i < n; ++i) {
    phases.push_back(i % 2 == 0 ? wl::memory_phase("m", 1.0)
                                : wl::mixed_phase("x", 1.0));
  }
  std::vector<const wl::Phase*> ptrs;
  for (const auto& p : phases) ptrs.push_back(&p);
  std::vector<sim::ExecObservation> out;
  for (auto _ : state) {
    model.evaluate(server, ptrs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_InterferenceEvaluate)->Arg(2)->Arg(8)->Arg(32);

void BM_SeedStreamDerive(benchmark::State& state) {
  std::uint64_t root = 0x9E3779B97F4A7C15ULL;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::SeedStream::derive(root, i++));
  }
}
BENCHMARK(BM_SeedStreamDerive);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      engine.at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    engine.run_all();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueThroughput)->Unit(benchmark::kMicrosecond);

// Console output as usual, plus each finished run recorded as a RunReport
// result row (name = benchmark name, value = adjusted real time).
class ReportingReporter final : public benchmark::ConsoleReporter {
 public:
  explicit ReportingReporter(bench::Run* run) : run_(run) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const auto& r : runs) {
      if (r.error_occurred) continue;
      run_->result(r.benchmark_name(), r.GetAdjustedRealTime(),
                   benchmark::GetTimeUnitString(r.time_unit));
    }
  }

 private:
  bench::Run* run_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::Run run("micro");
  ReportingReporter reporter(&run);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

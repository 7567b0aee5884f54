// LoadDriver tests — the harness behind `gsight serve-bench`. The
// deterministic suite is the unit-level version of check.sh's twin-run
// gate; the threaded suites run under TSan via the 'Serve' name match.
#include "serve/load_driver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <sstream>
#include <string_view>
#include <vector>

#include "ml/incremental_forest.hpp"
#include "stats/rng.hpp"

namespace gsight::serve {
namespace {

constexpr std::size_t kDim = 16;

ml::IncrementalForest warm_model(std::uint64_t seed, std::size_t rows) {
  ml::IncrementalForestConfig cfg;
  cfg.forest.n_trees = 8;
  ml::IncrementalForest model(cfg, seed);
  if (rows > 0) {
    stats::Rng rng(seed ^ 0xABCDULL);
    ml::Dataset data(kDim);
    std::vector<double> x(kDim);
    for (std::size_t i = 0; i < rows; ++i) {
      for (auto& v : x) v = rng.uniform();
      data.add(x, LoadDriver::label_of(x));
    }
    model.partial_fit(data);
  }
  return model;
}

ServiceConfig sync_config() {
  ServiceConfig cfg;
  cfg.feature_dim = kDim;
  cfg.worker_threads = 0;
  cfg.max_batch = 8;
  cfg.queue_capacity = 128;
  cfg.train_batch = 32;
  cfg.batch_linger = std::chrono::microseconds(10);
  return cfg;
}

DriverRequest open_loop_config() {
  DriverRequest cfg;
  cfg.mode = DriverRequest::Mode::kOpenLoop;
  cfg.requests = 600;
  cfg.rate_hz = 100'000.0;
  cfg.observe_every = 8;
  cfg.seed = 5;
  return cfg;
}

TEST(ServeLoadDriver, DeterministicOpenLoopServesEveryRequest) {
  PredictionService service(sync_config(), warm_model(3, 64));
  service.start();
  LoadDriver driver(open_loop_config());
  const auto outcome = driver.run(service);
  EXPECT_EQ(outcome.submitted, 600u);
  EXPECT_EQ(outcome.completed + outcome.shed, 600u);
  EXPECT_EQ(outcome.shed, 0u);  // capacity 128 >> in-flight at this rate
  EXPECT_GT(outcome.duration_s, 0.0);
  EXPECT_GT(outcome.throughput_rps, 0.0);
  // Virtual latency = queueing-until-batch delay: bounded by the linger.
  EXPECT_GE(outcome.latency_max_us, outcome.latency_p99_us);
  EXPECT_GE(outcome.latency_p99_us, outcome.latency_p50_us);
  // Hot swap happened under deterministic load too: 600/8 observations
  // cross the train_batch=32 threshold at least twice.
  EXPECT_GE(service.stats().train_rounds, 1u);
  EXPECT_GT(service.stats().model_version, 1u);
}

TEST(ServeLoadDriver, DeterministicTwinRunsAreIdentical) {
  LoadOutcome first;
  LoadOutcome second;
  ServiceStats stats_first;
  ServiceStats stats_second;
  for (int run = 0; run < 2; ++run) {
    PredictionService service(sync_config(), warm_model(3, 64));
    service.start();
    LoadDriver driver(open_loop_config());
    const auto outcome = driver.run(service);
    (run == 0 ? first : second) = outcome;
    (run == 0 ? stats_first : stats_second) = service.stats();
  }
  // The virtual timeline makes every field exactly reproducible — the
  // same contract scripts/check.sh enforces on BENCH_serve.json.
  EXPECT_EQ(first.submitted, second.submitted);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_EQ(first.duration_s, second.duration_s);
  EXPECT_EQ(first.throughput_rps, second.throughput_rps);
  EXPECT_EQ(first.latency_p50_us, second.latency_p50_us);
  EXPECT_EQ(first.latency_p95_us, second.latency_p95_us);
  EXPECT_EQ(first.latency_p99_us, second.latency_p99_us);
  EXPECT_EQ(first.latency_mean_us, second.latency_mean_us);
  EXPECT_EQ(first.latency_max_us, second.latency_max_us);
  EXPECT_EQ(stats_first.batches, stats_second.batches);
  EXPECT_EQ(stats_first.train_rounds, stats_second.train_rounds);
  EXPECT_EQ(stats_first.model_version, stats_second.model_version);
  EXPECT_EQ(stats_first.batch_size_counts, stats_second.batch_size_counts);
}

TEST(ServeLoadDriver, DifferentSeedsChangeTheTimeline) {
  LoadOutcome outcomes[2];
  for (int run = 0; run < 2; ++run) {
    PredictionService service(sync_config(), warm_model(3, 64));
    service.start();
    auto lc = open_loop_config();
    lc.seed = static_cast<std::uint64_t>(run + 1);
    LoadDriver driver(lc);
    outcomes[run] = driver.run(service);
  }
  // Different Poisson arrival streams: durations should not coincide.
  EXPECT_NE(outcomes[0].duration_s, outcomes[1].duration_s);
}

TEST(ServeLoadDriver, DeterministicOverloadSheds) {
  auto sc = sync_config();
  sc.queue_capacity = 2;  // tiny queue, batch deadline far away
  sc.max_batch = 64;
  sc.batch_linger = std::chrono::milliseconds(10);
  PredictionService service(sc, warm_model(7, 64));
  service.start();
  auto lc = open_loop_config();
  lc.requests = 200;
  lc.rate_hz = 10'000'000.0;  // arrivals far faster than deadlines fire
  LoadDriver driver(lc);
  const auto outcome = driver.run(service);
  EXPECT_EQ(outcome.submitted, 200u);
  EXPECT_GT(outcome.shed, 0u) << "overload must shed, not queue unboundedly";
  EXPECT_EQ(outcome.completed + outcome.shed, 200u);
  EXPECT_EQ(service.stats().shed, outcome.shed);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Golden digest of a synchronous open-loop run: every LoadOutcome field
// (doubles in hexfloat, so every bit counts) and every ServiceStats
// counter. Pins the deterministic driver to a fixed output independently
// of any twin run; a deliberate change to the driver's timeline must
// update the digest and say why.
TEST(ServeLoadDriver, DeterministicGoldenDigest) {
  auto sc = sync_config();
  sc.queue_capacity = 4;  // below max_batch: bursts inside one linger shed
  PredictionService service(sc, warm_model(3, 64));
  service.start();
  auto lc = open_loop_config();
  lc.rate_hz = 400'000.0;
  LoadDriver driver(lc);
  const auto o = driver.run(service);
  const ServiceStats s = service.stats();

  std::ostringstream out;
  out << std::hexfloat << o.submitted << ' ' << o.completed << ' ' << o.shed
      << ' ' << o.duration_s << ' ' << o.throughput_rps << ' '
      << o.latency_p50_us << ' ' << o.latency_p95_us << ' '
      << o.latency_p99_us << ' ' << o.latency_mean_us << ' '
      << o.latency_max_us << '\n'
      << s.accepted << ' ' << s.shed << ' ' << s.predicted << ' ' << s.batches
      << ' ' << s.observations << ' ' << s.observations_shed << ' '
      << s.train_rounds << ' ' << s.snapshot_swaps << ' ' << s.model_version
      << '\n';
  for (const std::uint64_t c : s.batch_size_counts) out << c << ' ';
  EXPECT_GT(o.shed, 0u);
  EXPECT_EQ(fnv1a(out.str()), 0x65443df041eac68dull) << std::hex << fnv1a(out.str());
}

ServiceConfig threaded_config() {
  ServiceConfig cfg;
  cfg.feature_dim = kDim;
  cfg.worker_threads = 2;
  cfg.max_batch = 8;
  cfg.queue_capacity = 512;
  cfg.train_batch = 32;
  cfg.batch_linger = std::chrono::microseconds(20);
  return cfg;
}

TEST(ServeLoadDriverThreaded, OpenLoopCompletesEveryAcceptedRequest) {
  PredictionService service(threaded_config(), warm_model(9, 64));
  service.start();
  auto lc = open_loop_config();
  lc.requests = 400;
  lc.rate_hz = 20'000.0;
  LoadDriver driver(lc);
  const auto outcome = driver.run(service);
  service.stop();
  EXPECT_EQ(outcome.submitted, 400u);
  EXPECT_EQ(outcome.completed + outcome.shed, 400u);
  EXPECT_GT(outcome.completed, 0u);
  EXPECT_GT(outcome.throughput_rps, 0.0);
}

TEST(ServeLoadDriverThreaded, ClosedLoopCompletesRequestedCount) {
  PredictionService service(threaded_config(), warm_model(11, 64));
  service.start();
  DriverRequest lc;
  lc.mode = DriverRequest::Mode::kClosedLoop;
  lc.requests = 300;
  lc.clients = 4;
  lc.observe_every = 8;
  lc.seed = 21;
  LoadDriver driver(lc);
  const auto outcome = driver.run(service);
  service.stop();
  // Closed loop never sheds: each client has at most one outstanding
  // request against a deep queue.
  EXPECT_EQ(outcome.shed, 0u);
  EXPECT_GE(outcome.completed, 300u);
  EXPECT_EQ(outcome.submitted, outcome.completed);
  EXPECT_GT(outcome.latency_p50_us, 0.0);
}

}  // namespace
}  // namespace gsight::serve

#include <gtest/gtest.h>

#include "sim/autoscaler.hpp"
#include "sim/platform.hpp"
#include "stats/summary.hpp"
#include "workloads/functionbench.hpp"
#include "workloads/socialnetwork.hpp"
#include "workloads/sparkapps.hpp"
#include "workloads/suite.hpp"

namespace gsight::sim {
namespace {

PlatformConfig warm_config(std::size_t servers = 4) {
  PlatformConfig pc;
  pc.servers = servers;
  pc.server = ServerConfig::tianjin_testbed();
  pc.seed = 7;
  pc.instance.startup_cores = 0.0;  // keep cold starts cheap in unit tests
  pc.instance.startup_disk_mbps = 0.0;
  return pc;
}

TEST(Platform, DeployCreatesOneReplicaPerFunction) {
  Platform platform(warm_config());
  const auto app = wl::social_network();
  const std::size_t id =
      platform.deploy(app, std::vector<std::size_t>(9, 0));
  EXPECT_EQ(platform.total_instances(), 9u);
  for (std::size_t fn = 0; fn < 9; ++fn) {
    EXPECT_EQ(platform.replicas(id, fn).size(), 1u);
  }
}

TEST(Platform, DeployRejectsBadPlacement) {
  Platform platform(warm_config());
  EXPECT_THROW(platform.deploy(wl::social_network(), {0, 1}),
               std::invalid_argument);
}

TEST(Platform, SingleRequestCompletesNearCriticalPathTime) {
  Platform platform(warm_config());
  auto app = wl::social_network();
  for (auto& fn : app.functions) {
    fn.jitter_sigma = 0.0;
    fn.cold_start_s = 0.0;
  }
  const std::size_t id =
      platform.deploy(app, std::vector<std::size_t>(9, 0));
  platform.issue_request(id);
  platform.run_until(5.0);
  const auto& st = platform.stats(id);
  ASSERT_EQ(st.e2e.size(), 1u);
  const double latency = st.e2e[0].second;
  const double critical = app.critical_path_solo_s();
  EXPECT_GT(latency, critical * 0.99);
  EXPECT_LT(latency, critical * 1.5 + 0.01);  // + gateway hops
}

TEST(Platform, AsyncBranchesDoNotExtendLatency) {
  // Make the async side branches enormous: e2e latency must not follow.
  Platform platform(warm_config());
  auto app = wl::social_network();
  for (auto& fn : app.functions) {
    fn.jitter_sigma = 0.0;
    fn.cold_start_s = 0.0;
  }
  app.functions[wl::kUploadText].phases[0].solo_duration_s = 3.0;  // async
  const std::size_t id =
      platform.deploy(app, std::vector<std::size_t>(9, 0));
  platform.issue_request(id);
  platform.run_until(10.0);
  const auto& st = platform.stats(id);
  ASSERT_EQ(st.e2e.size(), 1u);
  EXPECT_LT(st.e2e[0].second, 0.5);
}

TEST(Platform, NestedSlowdownExtendsLatency) {
  Platform platform(warm_config());
  auto app = wl::social_network();
  for (auto& fn : app.functions) {
    fn.jitter_sigma = 0.0;
    fn.cold_start_s = 0.0;
  }
  app.functions[wl::kGetFollowers].phases[0].solo_duration_s = 1.0;  // nested
  const std::size_t id =
      platform.deploy(app, std::vector<std::size_t>(9, 0));
  platform.issue_request(id);
  platform.run_until(10.0);
  EXPECT_GT(platform.stats(id).e2e[0].second, 1.0);
}

TEST(Platform, OpenLoopGeneratesApproximateRate) {
  Platform platform(warm_config());
  const std::size_t id =
      platform.deploy(wl::social_network(), std::vector<std::size_t>(9, 0));
  platform.set_open_loop(id, 50.0);
  platform.run_until(20.0);
  platform.set_open_loop(id, 0.0);
  platform.run_until(22.0);
  const auto n = platform.stats(id).e2e.size();
  EXPECT_NEAR(static_cast<double>(n), 1000.0, 150.0);
}

TEST(Platform, OpenLoopStops) {
  Platform platform(warm_config());
  auto app = wl::social_network();
  for (auto& fn : app.functions) fn.cold_start_s = 0.0;  // skip warmup
  const std::size_t id =
      platform.deploy(app, std::vector<std::size_t>(9, 0));
  platform.set_open_loop(id, 50.0);
  platform.run_until(5.0);
  platform.set_open_loop(id, 0.0);
  const auto before = platform.stats(id).e2e.size();
  platform.run_until(15.0);
  const auto after = platform.stats(id).e2e.size();
  EXPECT_LE(after - before, 5u);  // only in-flight stragglers
}

TEST(Platform, JobJctNearSoloWhenAlone) {
  Platform platform(warm_config());
  auto app = wl::logistic_regression_small();
  app.functions[0].jitter_sigma = 0.0;
  app.functions[0].cold_start_s = 0.0;
  const std::size_t id = platform.deploy(app, {0});
  double jct = 0.0;
  platform.submit_job(id, [&](double v) { jct = v; });
  platform.run_until(100.0);
  EXPECT_NEAR(jct, app.total_solo_s(), 0.2);
}

TEST(Platform, AbortExecutionsFreesInstanceForQueuedWork) {
  // Aborting the running job (the workload migrates away) must release
  // its instance: the queued job starts and completes, the instance goes
  // idle, and the gateway's backlog signal drains to zero.
  Platform platform(warm_config(1));
  const std::size_t id = platform.deploy(wl::matmul(1.0), {0});
  platform.submit_job(id);
  platform.submit_job(id);
  platform.run_until(1.0);
  EXPECT_EQ(platform.cluster().total_backlog(), 2u);
  EXPECT_EQ(platform.abort_executions(id), 1u);
  EXPECT_EQ(platform.cluster().total_backlog(), 1u);
  platform.run_until(200.0);
  EXPECT_EQ(platform.stats(id).jct.size(), 1u);
  EXPECT_EQ(platform.cluster().total_backlog(), 0u);
  for (const Instance* inst : platform.replicas(id, 0)) {
    EXPECT_TRUE(inst->idle());
  }
  EXPECT_EQ(platform.abort_executions(id), 0u);  // nothing left running
}

TEST(Platform, FnLatencyAndIpcPerFunctionRecorded) {
  Platform platform(warm_config());
  auto app = wl::social_network();
  for (auto& fn : app.functions) fn.cold_start_s = 0.0;  // skip warmup
  const std::size_t id =
      platform.deploy(app, std::vector<std::size_t>(9, 0));
  platform.set_open_loop(id, 20.0);
  platform.run_until(10.0);
  const auto& st = platform.stats(id);
  for (std::size_t fn = 0; fn < 9; ++fn) {
    EXPECT_FALSE(st.fn_latency[fn].empty()) << fn;
    EXPECT_GT(st.fn_ipc[fn].mean(), 0.0) << fn;
  }
}

TEST(Platform, AddAndRemoveReplica) {
  Platform platform(warm_config());
  const std::size_t id =
      platform.deploy(wl::social_network(), std::vector<std::size_t>(9, 0));
  platform.add_replica(id, 0, 1);
  EXPECT_EQ(platform.replicas(id, 0).size(), 2u);
  EXPECT_TRUE(platform.remove_replica(id, 0));
  // Let the pre-warm invocation finish and the gc destroy the drained
  // instance (cold start is 2 s for this app).
  platform.run_until(6.0);
  EXPECT_EQ(platform.replicas(id, 0).size(), 1u);
  // min_keep prevents removing the last replica.
  EXPECT_FALSE(platform.remove_replica(id, 0));
}

TEST(Platform, RouterSpreadsAcrossReplicas) {
  Platform platform(warm_config());
  const std::size_t id =
      platform.deploy(wl::social_network(), std::vector<std::size_t>(9, 0));
  platform.add_replica(id, 0, 1);
  Instance* a = platform.route(id, 0);
  Instance* b = platform.route(id, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(platform.route(id, 0), a);  // round robin wraps
}

TEST(Platform, FunctionDensityCountsInstancesPerActiveCore) {
  Platform platform(warm_config(2));  // 2 x 40 cores, one left empty
  const std::size_t id =
      platform.deploy(wl::social_network(), std::vector<std::size_t>(9, 0));
  EXPECT_NEAR(platform.function_density(), 9.0 / 40.0, 1e-9);
  // Spreading onto the second server halves the density contribution.
  platform.add_replica(id, 0, 1);
  EXPECT_NEAR(platform.function_density(), 10.0 / 80.0, 1e-9);
}

TEST(Autoscaler, ScalesOutUnderLoadAndBackWhenIdle) {
  Platform platform(warm_config());
  auto app = wl::social_network();
  const std::size_t id =
      platform.deploy(app, std::vector<std::size_t>(9, 0));
  AutoscalerConfig cfg;
  cfg.tick_s = 2.0;
  cfg.max_replicas = 8;
  std::size_t placements = 0;
  Autoscaler scaler(&platform, cfg, [&](std::size_t, std::size_t) {
    ++placements;
    return placements % 4;  // spread
  });
  scaler.start();
  // 120 qps against ~10ms functions needs ~2 replicas of the slow ones.
  platform.set_open_loop(id, 120.0);
  platform.run_until(30.0);
  EXPECT_GT(platform.total_instances(), 9u);
  EXPECT_GT(scaler.scale_out_events(), 0u);
  EXPECT_GT(scaler.rate_estimate(id), 60.0);
  platform.set_open_loop(id, 0.0);
  platform.run_until(120.0);
  EXPECT_GT(scaler.scale_in_events(), 0u);
}

TEST(Recorder, WindowsCoverBusyTime) {
  Platform platform(warm_config());
  auto app = wl::logistic_regression_small();
  app.functions[0].jitter_sigma = 0.0;
  app.functions[0].cold_start_s = 0.0;
  const std::size_t id = platform.deploy(app, {0});
  platform.submit_job(id);
  platform.run_until(60.0);
  const double busy = platform.recorder().busy_seconds(id, 0);
  EXPECT_NEAR(busy, app.total_solo_s(), 0.1);
  const auto windows = platform.recorder().windows(id, 0);
  EXPECT_GT(windows.size(), 5u);  // per-second samples from one long job
  for (const auto& [w, acc] : windows) {
    EXPECT_GT(acc.ipc, 0.0);
    EXPECT_LE(acc.dt, platform.recorder().window_s() + 1e-9);
  }
}

}  // namespace
}  // namespace gsight::sim

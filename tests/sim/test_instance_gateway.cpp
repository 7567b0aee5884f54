#include <gtest/gtest.h>

#include "sim/gateway.hpp"
#include "sim/instance.hpp"

namespace gsight::sim {
namespace {

struct InstanceFixture : ::testing::Test {
  Engine engine;
  InterferenceModel model;
  Server server{0, ServerConfig::tiny(), &engine, &model};
  std::size_t backlog = 0;  ///< the count a Cluster would own
  wl::FunctionSpec spec = [] {
    wl::FunctionSpec s;
    s.name = "fn";
    s.cold_start_s = 0.5;
    s.mem_alloc_gb = 0.25;
    s.jitter_sigma = 0.0;  // deterministic timing for assertions
    s.phases.push_back(wl::cpu_phase("work", 1.0));
    return s;
  }();
};

TEST_F(InstanceFixture, FirstInvocationIsCold) {
  Instance inst(1, 0, 0, &spec, &server, &engine, {}, 42, &backlog);
  InvocationResult result;
  bool done = false;
  inst.submit([&](const InvocationResult& r) {
    result = r;
    done = true;
  });
  engine.run_until(10.0);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.cold);
  EXPECT_NEAR(result.exec_s, 1.5, 1e-9);  // cold start + work
  EXPECT_EQ(inst.cold_starts(), 1u);
}

TEST_F(InstanceFixture, SecondInvocationIsWarm) {
  Instance inst(1, 0, 0, &spec, &server, &engine, {}, 42, &backlog);
  std::vector<InvocationResult> results;
  inst.submit([&](const InvocationResult& r) { results.push_back(r); });
  engine.run_until(10.0);
  inst.submit([&](const InvocationResult& r) { results.push_back(r); });
  engine.run_until(20.0);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[1].cold);
  EXPECT_NEAR(results[1].exec_s, 1.0, 1e-9);
}

TEST_F(InstanceFixture, IdleExpiryRecools) {
  InstanceConfig cfg;
  cfg.idle_expiry_s = 5.0;
  Instance inst(1, 0, 0, &spec, &server, &engine, cfg, 42, &backlog);
  int colds = 0;
  auto count = [&](const InvocationResult& r) { colds += r.cold ? 1 : 0; };
  inst.submit(count);
  engine.run_until(3.0);
  inst.submit(count);  // warm: only ~1.5s since finish
  engine.run_until(20.0);
  inst.submit(count);  // > 5 s idle: cold again
  engine.run_until(40.0);
  EXPECT_EQ(colds, 2);
  EXPECT_EQ(inst.cold_starts(), 2u);
}

TEST_F(InstanceFixture, FifoQueueingAccumulatesWait) {
  Instance inst(1, 0, 0, &spec, &server, &engine, {}, 42, &backlog);
  std::vector<InvocationResult> results;
  for (int i = 0; i < 3; ++i) {
    inst.submit([&](const InvocationResult& r) { results.push_back(r); });
  }
  EXPECT_EQ(inst.queue_depth(), 2u);  // one running, two queued
  EXPECT_EQ(inst.backlog(), 3u);
  EXPECT_EQ(backlog, 3u);
  engine.run_until(30.0);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(backlog, 0u);
  EXPECT_NEAR(results[0].queue_wait_s, 0.0, 1e-9);
  EXPECT_NEAR(results[1].queue_wait_s, 1.5, 1e-9);  // behind cold+work
  EXPECT_NEAR(results[2].queue_wait_s, 2.5, 1e-9);
  EXPECT_GT(results[2].local_latency_s, results[0].local_latency_s);
}

TEST_F(InstanceFixture, ResidentMemoryTracked) {
  EXPECT_DOUBLE_EQ(server.resident_mem_gb(), 0.0);
  {
    Instance inst(1, 0, 0, &spec, &server, &engine, {}, 42, &backlog);
    EXPECT_DOUBLE_EQ(server.resident_mem_gb(), 0.25);
  }
  EXPECT_DOUBLE_EQ(server.resident_mem_gb(), 0.0);
}

TEST_F(InstanceFixture, StatsAccumulate) {
  Instance inst(1, 0, 0, &spec, &server, &engine, {}, 42, &backlog);
  for (int i = 0; i < 5; ++i) {
    inst.submit([](const InvocationResult&) {});
    engine.run_until(engine.now() + 10.0);
  }
  EXPECT_EQ(inst.invocations(), 5u);
  EXPECT_EQ(inst.local_latencies().seen(), 5u);
  EXPECT_GT(inst.ipc_stats().mean(), 0.0);
}

TEST_F(InstanceFixture, RetireMarksDraining) {
  Instance inst(1, 0, 0, &spec, &server, &engine, {}, 42, &backlog);
  EXPECT_FALSE(inst.draining());
  EXPECT_TRUE(inst.idle());
  inst.retire();
  EXPECT_TRUE(inst.draining());
}

struct GatewayFixture : ::testing::Test {
  Engine engine;
  GatewayConfig config;
  GatewayFixture() { config.base_service_s = 0.001; }
};

TEST_F(GatewayFixture, DeliversAfterServiceTime) {
  Gateway gw(&engine, config);
  double delivered_at = -1.0;
  gw.forward([&] { delivered_at = engine.now(); });
  engine.run_until(1.0);
  EXPECT_NEAR(delivered_at, 0.001, 1e-6);
}

TEST_F(GatewayFixture, SerialQueueing) {
  Gateway gw(&engine, config);
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    gw.forward([&] { times.push_back(engine.now()); });
  }
  engine.run_until(1.0);
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
    // Every forward costs at least the base service time; the gateway's
    // own queue is not priced (only backend backlog is), so the gaps are
    // uniform here.
    EXPECT_NEAR(times[i] - times[i - 1], config.base_service_s, 1e-9);
  }
}

TEST_F(GatewayFixture, InstanceCountKnee) {
  Gateway gw(&engine, config);
  std::size_t instances = 0;
  gw.set_instance_count_source([&] { return instances; });
  instances = 10;
  const double cheap = gw.current_service_s();
  instances = 120;
  const double at_knee = gw.current_service_s();
  instances = 200;
  const double beyond = gw.current_service_s();
  EXPECT_LT(cheap, at_knee);
  EXPECT_GT(at_knee, 1.5 * cheap);
  EXPECT_GT(beyond, 5.0 * at_knee);
}

TEST_F(GatewayFixture, BackendBacklogSlowsForwarding) {
  Gateway gw(&engine, config);
  std::size_t backlog = 0;
  gw.set_backend_backlog_source([&] { return backlog; });
  const double idle = gw.current_service_s();
  backlog = 1000;
  EXPECT_GT(gw.current_service_s(), 2.0 * idle);
}

TEST_F(GatewayFixture, ForwardingLatenciesRecorded) {
  Gateway gw(&engine, config);
  for (int i = 0; i < 10; ++i) {
    gw.forward([] {});
  }
  engine.run_until(1.0);
  EXPECT_EQ(gw.forwarding_latencies().seen(), 10u);
  EXPECT_GT(gw.forwarding_latencies().mean(), 0.0);
}

}  // namespace
}  // namespace gsight::sim

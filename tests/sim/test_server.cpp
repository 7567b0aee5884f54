#include "sim/server.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gsight::sim {
namespace {

struct Fixture : ::testing::Test {
  Engine engine;
  InterferenceModel model;
  ServerConfig config = ServerConfig::tiny();
  Server server{0, ServerConfig::tiny(), &engine, &model};
};

TEST_F(Fixture, SoloExecutionTakesSoloDuration) {
  bool done = false;
  ExecResult result;
  server.begin_execution({wl::cpu_phase("c", 2.5)},
                         [&](const ExecResult& r) {
                           done = true;
                           result = r;
                         });
  engine.run_until(10.0);
  ASSERT_TRUE(done);
  EXPECT_NEAR(result.duration_s, 2.5, 1e-9);
  EXPECT_NEAR(result.solo_s, 2.5, 1e-9);
  EXPECT_NEAR(result.mean_slowdown, 1.0, 1e-9);
  EXPECT_NEAR(result.mean_ipc, 2.2, 1e-6);  // cpu_phase default ipc
}

TEST_F(Fixture, MultiPhaseExecutionSumsDurations) {
  double finished = -1.0;
  server.begin_execution(
      {wl::cpu_phase("a", 1.0), wl::disk_phase("b", 2.0),
       wl::net_phase("c", 0.5)},
      [&](const ExecResult&) { finished = engine.now(); });
  engine.run_until(10.0);
  EXPECT_NEAR(finished, 3.5, 1e-9);
}

TEST_F(Fixture, ContendedExecutionsSlowDown) {
  // Two 4-core demands on a 4-core server => ~2x stretching.
  std::vector<double> completions;
  for (int i = 0; i < 2; ++i) {
    server.begin_execution(
        {wl::cpu_phase("c", 1.0, /*cores=*/4.0)},
        [&](const ExecResult&) { completions.push_back(engine.now()); });
  }
  engine.run_until(10.0);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_GT(completions[0], 1.8);
  EXPECT_LT(completions[0], 2.3);
}

TEST_F(Fixture, LateArrivalOnlySlowsRemainder) {
  // Exec A runs solo for 1s, then B joins; A's first half is full speed.
  std::vector<double> completions(2, 0.0);
  server.begin_execution({wl::cpu_phase("a", 2.0, 4.0)},
                         [&](const ExecResult&) { completions[0] = engine.now(); });
  engine.at(1.0, [&] {
    server.begin_execution({wl::cpu_phase("b", 2.0, 4.0)},
                           [&](const ExecResult&) { completions[1] = engine.now(); });
  });
  engine.run_until(20.0);
  // A: 1s solo + ~2s contended for remaining 1s of work => ~3s total.
  EXPECT_NEAR(completions[0], 3.0, 0.1);
  // B: contended while A alive, solo afterwards.
  EXPECT_GT(completions[1], 3.5);
  EXPECT_LT(completions[1], 4.6);
}

TEST_F(Fixture, AbortRemovesExecution) {
  bool completed = false;
  const ExecId id = server.begin_execution(
      {wl::cpu_phase("c", 5.0)}, [&](const ExecResult&) { completed = true; });
  EXPECT_EQ(server.active_count(), 1u);
  engine.run_until(1.0);
  EXPECT_TRUE(server.abort_execution(id));
  engine.run_until(20.0);
  EXPECT_FALSE(completed);
  EXPECT_EQ(server.active_count(), 0u);
  EXPECT_FALSE(server.abort_execution(id));  // already gone
}

TEST_F(Fixture, ObservationAccessibleWhileRunning) {
  const ExecId id =
      server.begin_execution({wl::cpu_phase("c", 3.0)}, [](const ExecResult&) {});
  const auto* ob = server.observation(id);
  ASSERT_NE(ob, nullptr);
  EXPECT_NEAR(ob->rate, 1.0, 1e-9);
  EXPECT_EQ(server.observation(9999), nullptr);
}

TEST_F(Fixture, ActiveDemandAggregates) {
  server.begin_execution({wl::cpu_phase("a", 3.0, 2.0)}, [](const ExecResult&) {});
  server.begin_execution({wl::disk_phase("b", 3.0, 100.0)},
                         [](const ExecResult&) {});
  const auto totals = server.active_demand();
  EXPECT_NEAR(totals.cores, 2.3, 1e-9);  // 2.0 + 0.3 (disk phase cores)
  EXPECT_NEAR(totals.disk_mbps, 100.0, 1e-9);
}

TEST_F(Fixture, ResidencyAccounting) {
  server.add_resident(2.0);
  server.add_resident(3.0);
  EXPECT_DOUBLE_EQ(server.resident_mem_gb(), 5.0);
  EXPECT_EQ(server.resident_count(), 2u);
  server.remove_resident(2.0);
  EXPECT_DOUBLE_EQ(server.resident_mem_gb(), 3.0);
}

struct SliceCollector final : ExecSliceSink {
  double total_dt = 0.0;
  double ipc_weighted = 0.0;
  int slices = 0;
  void on_exec_slice(void*, SimTime, double dt, const ExecObservation& obs,
                     const wl::Phase&) override {
    total_dt += dt;
    ipc_weighted += dt * obs.ipc;
    ++slices;
  }
};

TEST_F(Fixture, SliceSinkIntegralsCoverExecution) {
  SliceCollector sink;
  server.set_slice_sink(&sink);
  server.begin_execution({wl::cpu_phase("a", 1.0), wl::cpu_phase("b", 2.0)},
                         [](const ExecResult&) {});
  engine.run_until(10.0);
  EXPECT_NEAR(sink.total_dt, 3.0, 1e-9);
  EXPECT_NEAR(sink.ipc_weighted / sink.total_dt, 2.2, 1e-6);
  EXPECT_GE(sink.slices, 2);
}

TEST_F(Fixture, CpuUtilizationReflectsLoad) {
  EXPECT_DOUBLE_EQ(server.cpu_utilization(), 0.0);
  server.begin_execution({wl::cpu_phase("c", 5.0, /*cores=*/2.0)},
                         [](const ExecResult&) {});
  EXPECT_NEAR(server.cpu_utilization(), 0.5, 1e-9);  // 2 of 4 cores
}

TEST_F(Fixture, ManyStaggeredExecutionsAllComplete) {
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    engine.at(0.1 * i, [&, i] {
      server.begin_execution({wl::mixed_phase("m", 0.5 + 0.05 * i)},
                             [&](const ExecResult&) { ++completed; });
    });
  }
  engine.run_until(100.0);
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(server.active_count(), 0u);
}

// Completion events. The fixture's engine holds only this server's
// events, so pending() and events_executed() count its completion events.

TEST_F(Fixture, EqualEtaCompletesInExecIdOrder) {
  // Identical executions begun together have equal remaining/rate; they
  // must finish in start (ExecId) order.
  std::vector<ExecId> done;
  std::vector<ExecId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(server.begin_execution(
        {wl::cpu_phase("c", 1.0, /*cores=*/2.0)},
        [&done, &ids, i](const ExecResult&) { done.push_back(ids[i]); }));
  }
  engine.run_all();
  EXPECT_EQ(done, ids);
}

TEST_F(Fixture, OneCompletionEventForManyExecutions) {
  // Five 4-core executions time-slice the 4-core node (1 MB of LLC each
  // stays within its 8 MB), so the k-th arrival runs everyone at 1/k
  // speed and every superseded event lies before the live one at t = 5.
  std::vector<double> finished;
  for (int i = 1; i <= 5; ++i) {
    const std::size_t before = engine.pending();
    server.begin_execution(
        {wl::cpu_phase("c", static_cast<double>(i), /*cores=*/4.0,
                       /*llc_mb=*/1.0)},
        [&](const ExecResult&) { finished.push_back(engine.now()); });
    EXPECT_EQ(engine.pending(), before + 1) << "execution " << i;
  }
  ASSERT_EQ(server.active_count(), 5u);
  // The four superseded events fire as no-ops before the first completion.
  engine.run_until(4.5);
  EXPECT_EQ(engine.events_executed(), 4u);
  EXPECT_EQ(server.active_count(), 5u);
  EXPECT_EQ(engine.pending(), 1u);

  // Five arrivals and four completions with survivors each push one event.
  EXPECT_EQ(engine.run_all(), 5u);
  EXPECT_EQ(engine.events_executed(), 9u);
  ASSERT_EQ(finished.size(), 5u);
  // No superseded event trails the last completion (t ~ 15.09), so the
  // drain ends there.
  EXPECT_EQ(engine.now(), finished.back());
  EXPECT_EQ(engine.now(), 0x1.e30355d72833p+3)
      << std::hexfloat << engine.now();
}

TEST_F(Fixture, BeginAndAbortLeaveThePendingEventStale) {
  // A: 1 s of work on all four cores, alone until B arrives at 0.5 s.
  std::vector<double> done_a;
  server.begin_execution(
      {wl::cpu_phase("a", 1.0, /*cores=*/4.0)},
      [&](const ExecResult&) { done_a.push_back(engine.now()); });
  engine.run_until(0.5);
  ASSERT_EQ(engine.pending(), 1u);
  // B halves A's rate: A's event at t = 1 is now stale.
  const ExecId b = server.begin_execution(
      {wl::cpu_phase("b", 10.0, /*cores=*/4.0)}, [](const ExecResult&) {});
  EXPECT_EQ(engine.pending(), 2u);
  engine.run_until(1.2);
  EXPECT_EQ(engine.events_executed(), 1u);  // the stale event, a no-op
  EXPECT_TRUE(done_a.empty());
  EXPECT_EQ(server.active_count(), 2u);
  // Aborting B restores A's full rate: the event for A under sharing is
  // now stale and fires after A completes, again as a no-op.
  ASSERT_TRUE(server.abort_execution(b));
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_EQ(engine.run_all(), 2u);
  ASSERT_EQ(done_a.size(), 1u);
  EXPECT_GT(done_a[0], 1.2);
  EXPECT_LT(done_a[0], engine.now());
  EXPECT_EQ(server.active_count(), 0u);
}

}  // namespace
}  // namespace gsight::sim

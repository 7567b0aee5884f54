// Cluster::total_backlog() is a running count the instances keep on every
// transition (submit, completion, cancel of a running or a queued
// invocation, abort). These tests compare it with the O(instances) scan
// after every 1 ms step of runs that exercise each transition: clone
// fan-out with cancel-on-first-complete, processor-sharing servers,
// autoscaler churn that retires and destroys instances, migration aborts,
// and cross-cell clone handoffs on a sharded estate.
#include <gtest/gtest.h>

#include <string>

#include "sim/autoscaler.hpp"
#include "sim/platform.hpp"
#include "sim/sharded_engine.hpp"
#include "workloads/phase.hpp"

namespace gsight::sim {
namespace {

constexpr double kStep = 0.001;

std::size_t scanned_backlog(const Cluster& cluster) {
  std::size_t n = 0;
  for (const Instance* inst : cluster.instances()) {
    n += inst->queue_depth() + (inst->busy() ? 1 : 0);
  }
  return n;
}

wl::App one_fn_app(const std::string& name, wl::Phase phase,
                   wl::WorkloadClass cls, double jitter_sigma) {
  wl::FunctionSpec fn;
  fn.name = "fn";
  fn.cold_start_s = 0.0;
  fn.jitter_sigma = jitter_sigma;
  fn.phases.push_back(std::move(phase));
  wl::App app;
  app.name = name;
  app.cls = cls;
  app.functions.push_back(std::move(fn));
  app.graph = wl::CallGraph(1);
  return app;
}

TEST(ClusterBacklog, CountMatchesScanUnderCancelsAndChurn) {
  PlatformConfig pc;
  pc.servers = 4;
  pc.server = ServerConfig::socket();
  pc.server.discipline = ServiceDiscipline::kProcessorSharing;
  pc.seed = 1414;
  pc.instance.startup_cores = 0.0;
  pc.instance.startup_disk_mbps = 0.0;
  pc.gateway.clone.factor = 3;
  Platform platform(pc);

  const std::size_t ls = platform.deploy(
      one_fn_app("ls", wl::cpu_phase("work", 0.04, 2.0),
                 wl::WorkloadClass::kLatencySensitive, 0.5),
      {0});
  for (std::size_t s = 1; s < pc.servers; ++s) platform.add_replica(ls, 0, s);
  const std::size_t job = platform.deploy(
      one_fn_app("job", wl::cpu_phase("work", 20.0, 4.0),
                 wl::WorkloadClass::kShortCompute, 0.0),
      {1});
  platform.submit_job(job);
  platform.submit_job(job);  // queued behind the first

  // A burst the initial replicas cannot absorb (queues build, so clone
  // legs are cancelled both queued and running), then a lull long enough
  // for the autoscaler to retire the surplus and gc to destroy it.
  platform.set_rate_function(
      ls, [](double t) { return t < 6.0 ? 300.0 : 10.0; }, 300.0);
  AutoscalerConfig ac;
  ac.tick_s = 1.0;
  ac.scale_in_patience = 2;
  std::size_t next_server = 0;
  Autoscaler scaler(&platform, ac, [&](std::size_t, std::size_t) {
    return next_server++ % pc.servers;
  });
  scaler.start();

  std::size_t aborted = 0;
  for (int step = 1; step <= 25000; ++step) {
    platform.run_until(step * kStep);
    if (step == 3000) aborted = platform.abort_executions(job);
    ASSERT_EQ(platform.cluster().total_backlog(),
              scanned_backlog(platform.cluster()))
        << "at t = " << platform.now();
  }

  // Every transition was exercised.
  EXPECT_EQ(aborted, 1u);
  EXPECT_GT(platform.stats(ls).clones_cancelled, 0u);
  EXPECT_GT(scaler.scale_out_events(), 0u);
  EXPECT_GT(scaler.scale_in_events(), 0u);
  EXPECT_GT(platform.cluster().instances_destroyed(), 0u);
}

TEST(ClusterBacklog, CountMatchesScanAcrossShardedCloneHandoffs) {
  ShardedEngineConfig cfg;
  cfg.servers = 2;
  cfg.server = ServerConfig::tiny();
  cfg.server.discipline = ServiceDiscipline::kProcessorSharing;
  cfg.seed = 4242;
  cfg.topology.clusters = 4;
  cfg.topology.shards = 2;
  cfg.topology.hop_latency_s = 0.05;
  cfg.remote_fraction = 0.3;
  cfg.clone_handoffs = true;
  cfg.gateway.clone.factor = 2;
  cfg.trace.base_qps = 25.0;
  cfg.trace.day_seconds = 60.0;
  ShardedEngine eng(cfg);
  eng.deploy_default_load();

  for (int step = 1; step <= 20000; ++step) {
    eng.run_until(step * kStep);
    for (std::size_t i = 0; i < eng.shard_count(); ++i) {
      Cluster& cluster = eng.shard(i).platform().cluster();
      ASSERT_EQ(cluster.total_backlog(), scanned_backlog(cluster))
          << "cell " << i << " at t = " << eng.now();
    }
  }
  std::uint64_t cancels = 0;
  for (std::size_t i = 0; i < eng.shard_count(); ++i) {
    cancels += eng.shard(i).clone_cancels_applied();
  }
  EXPECT_GT(cancels, 0u);
}

}  // namespace
}  // namespace gsight::sim

// Figure 14 — online running cost and scalability.
// (a) Cost breakdown of the scheduling pipeline: invocation forwarding,
//     scheduling decision (prediction calls), instance starting, resource
//     allocation. Paper: instance start dominates; a decision takes a few
//     ms (inference 3.48 ms, incremental update 24.784 ms on their HW).
// (b) Gateway forwarding is stable below ~110 instances and collapses
//     past ~120 (the shared-gateway scalability wall).
#include "common.hpp"
#include "sched/gsight_scheduler.hpp"
#include "sim/platform.hpp"
#include "stats/seed_stream.hpp"
#include "workloads/socialnetwork.hpp"

int main() {
  using namespace gsight;
  bench::Stopwatch total;
  bench::Run run("fig14_overhead");

  // --- Train a small IRFR so inference/update timings are realistic ------
  auto cfg = bench::quick_builder_config();
  prof::ProfileStore store;
  core::DatasetBuilder builder(&store, cfg, /*seed=*/1414);
  auto stream =
      builder.build(bench::build_request(core::ColocationClass::kLsScBg,
                                         core::QosKind::kIpc, 60));
  core::PredictorConfig pcfg;
  pcfg.encoder = cfg.encoder;
  pcfg.model = core::ModelKind::kIRFR;
  core::GsightPredictor predictor(pcfg);
  ml::Dataset train(predictor.encoder().dimension());
  for (const auto& s : stream) {
    for (double l : s.labels) train.add(s.features, l);
  }
  predictor.train(train);

  bench::header("Figure 14(a): per-operation cost of the scheduling pipeline "
                "(wall clock on this machine)");
  // Inference latency.
  {
    bench::Stopwatch sw;
    const std::size_t reps = 200;
    double sink = 0.0;
    for (std::size_t i = 0; i < reps; ++i) {
      sink += predictor.predict(stream[i % stream.size()].outcome.scenario);
    }
    const double ms = sw.millis() / static_cast<double>(reps);
    std::printf("%-28s %10.3f ms   (paper: 3.48 ms)\n", "model inference", ms);
    run.result("model_inference_ms", ms, "ms");
    (void)sink;
  }
  // Incremental update latency.
  {
    core::GsightPredictor upd(pcfg);
    upd.train(train);
    bench::Stopwatch sw;
    const std::size_t reps = 8;
    for (std::size_t i = 0; i < reps; ++i) {
      for (int j = 0; j < 32; ++j) {
        upd.observe(stream[j % stream.size()].outcome.scenario, 1.0);
      }
      upd.flush();
    }
    // flush() only hands the batch to a background refresh, and each
    // flush waits for the one before; samples_seen() waits for the last,
    // so the stopwatch times whole updates.
    (void)upd.samples_seen();
    const double ms = sw.millis() / static_cast<double>(reps);
    std::printf("%-28s %10.3f ms   (paper: 24.784 ms)\n",
                "incremental update (batch)", ms);
    run.result("incremental_update_ms", ms, "ms");
  }
  // Scheduling decision (binary-search placement incl. predictions).
  {
    sched::DeploymentState state;
    state.servers = 8;
    state.load.resize(8);
    for (auto& l : state.load) {
      l.cores_capacity = 10.0;
      l.mem_capacity = 64.0;
    }
    const auto& profile = stream[0].outcome.scenario.workloads[0].profile;
    for (std::size_t w = 0; w < 4; ++w) {
      sched::DeployedWorkload dw;
      dw.profile = profile;
      dw.fn_to_server.assign(profile->functions.size(), w % 8);
      dw.cls = wl::WorkloadClass::kLatencySensitive;
      dw.sla = core::Sla{0.1, 0.5};
      state.workloads.push_back(dw);
    }
    sched::GsightScheduler scheduler(&predictor);
    bench::Stopwatch sw;
    const std::size_t reps = 50;
    for (std::size_t i = 0; i < reps; ++i) {
      (void)scheduler.place_workload(*profile, state, core::Sla{0.1, 0.5});
    }
    const double ms = sw.millis() / static_cast<double>(reps);
    std::printf("%-28s %10.3f ms   (paper: a few ms)\n",
                "scheduling decision", ms);
    run.result("scheduling_decision_ms", ms, "ms");
  }
  // Instance start and invocation forwarding come from the simulator's
  // model (simulated time, matching the paper's measured platform).
  std::printf("%-28s %10.3f ms   (simulated; paper: dominates)\n",
              "instance cold start", 2000.0);
  std::printf("%-28s %10.3f ms   (simulated, unloaded)\n",
              "invocation forwarding", 0.2);

  // --- (b): gateway forwarding vs instance count ---------------------------
  bench::header("Figure 14(b): gateway forwarding latency vs #instances");
  std::printf("%12s %22s\n", "#instances", "mean forward (ms)");
  bench::rule();
  auto knee_series = obs::Json::array();
  for (const std::size_t instances :
       {20u, 60u, 100u, 110u, 120u, 140u, 170u, 200u}) {
    sim::PlatformConfig pc;
    pc.servers = 8;
    pc.server = sim::ServerConfig::socket();
    pc.seed = stats::SeedStream::derive(7, instances);
    pc.instance.startup_cores = 0.0;
    pc.instance.startup_disk_mbps = 0.0;
    sim::Platform platform(pc);
    auto sn = wl::social_network();
    for (auto& fn : sn.functions) fn.cold_start_s = 0.0;
    std::vector<std::size_t> placement(9);
    for (std::size_t i = 0; i < 9; ++i) placement[i] = i % 8;
    const std::size_t id = platform.deploy(sn, placement);
    // Pad with extra replicas spread across the cluster to reach the
    // target instance count.
    std::size_t fn = 0;
    while (platform.total_instances() < instances) {
      platform.add_replica(id, fn % 9,
                           (fn * 5 + instances) % pc.servers);
      ++fn;
    }
    platform.set_open_loop(id, 60.0);
    platform.run_until(20.0);
    const double forward_ms =
        platform.gateway().forwarding_latencies().mean() * 1e3;
    std::printf("%12zu %22.3f\n", platform.total_instances(), forward_ms);
    auto row = obs::Json::object();
    row.set("instances", platform.total_instances());
    row.set("forward_ms", forward_ms);
    knee_series.push_back(std::move(row));
  }
  run.report().add_series("forward_ms_vs_instances", std::move(knee_series));
  bench::rule();
  std::printf("paper: stable below ~110 instances, rapid slowdown past 120 "
              "(gateway bottleneck)\n");

  std::printf("\n[bench_fig14_overhead done in %.1f s]\n", total.seconds());
  return 0;
}

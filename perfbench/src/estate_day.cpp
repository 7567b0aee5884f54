// estate_day — a 256-server estate as 2 cells x 128 servers, advanced
// serially (1 lane, 1 thread) through one compressed 600 s diurnal day
// with the per-cell load rule of bench_shard_scaling. No ML, no
// scheduler: pure simulator cost. The per-forward backlog scan over each
// 128-instance cell dominates, and two cells keep the mailbox and the
// epoch barrier in play.
//
// Serial on purpose: the pooled lane executor is unsteady on small hosts
// (five 4-thread runs gave 0.38-1.0M events/s against 2.0-2.2M serial),
// and a benchmark has to be steadier than the changes it judges.
//
// The day is advanced one epoch at a time through the public run_until,
// with the same barrier sequence run_until(600) takes internally, so the
// per-epoch host time is measured from outside without changing results
// (the merged digest proves it).
#include <algorithm>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/sharded_engine.hpp"
#include "workloads.hpp"
#include "workloads/azure_trace.hpp"

namespace perfbench {
namespace {

using namespace gsight;

constexpr std::size_t kCells = 2;

sim::ShardedEngineConfig estate_config(const Options& options) {
  sim::ShardedEngineConfig cfg;
  cfg.servers = options.tiny ? 8 : 128;
  cfg.server = sim::ServerConfig::socket();
  cfg.seed = options.seed;
  cfg.topology.clusters = kCells;
  cfg.topology.shards = 1;
  cfg.topology.hop_latency_s = 0.05;
  cfg.threads = 1;
  cfg.remote_fraction = 0.05;
  // Provisioned front-end, as in bench_shard_scaling: no gateway
  // saturates, so the run completes the whole day's work.
  cfg.gateway.instance_knee = 4096.0;
  // Per-cell rate: 80 req/s per 32 servers (bench_shard_scaling's rule).
  cfg.trace.base_qps =
      80.0 * static_cast<double>(cfg.servers) / 32.0;
  return cfg;
}

}  // namespace

void run_estate_day(const Options& options, Report& report) {
  const sim::ShardedEngineConfig cfg = estate_config(options);
  const double horizon = options.tiny ? 60.0 : 600.0;
  const double epoch = cfg.topology.epoch_length();

  // Offered load at each epoch's midpoint splits epochs into low and high.
  std::vector<double> rates;
  {
    const wl::AzureTraceGenerator shape(cfg.trace);
    for (double t = 0.0; t < horizon; t += epoch) {
      rates.push_back(shape.rate_at(std::min(horizon, t + 0.5 * epoch)));
    }
  }
  const double rate_median = median(rates);

  Samples e2e;
  Samples layers;
  RunTimes runs;
  std::vector<double> low_us;
  std::vector<double> high_us;
  std::string first_digest;
  std::uint64_t first_events = 0;
  gsight::obs::MemoryTraceSink trace_sink;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Repetitions reps(options, options.trace ? 2 : (options.tiny ? 1 : 3));
  while (reps.next()) {
    const bool traced = reps.traced();
    Spans spans(traced);

    const std::uint64_t setup_start = now_ns();
    std::int64_t setup_span = spans.open("setup");
    sim::ShardedEngine engine(cfg);
    engine.deploy_default_load();
    spans.close(setup_span);
    const double setup_s = seconds_between(setup_start, now_ns());

    const std::uint64_t run_start = now_ns();
    const std::int64_t run_span = spans.open("sim.run_until");
    for (std::size_t k = 0; engine.now() < horizon; ++k) {
      const std::uint64_t step_start = now_ns();
      {
        const Scope scope(spans, "sim.epoch");
        engine.run_until(std::min(horizon, engine.now() + epoch));
      }
      const double us = seconds_between(step_start, now_ns()) * 1e6;
      const double rate = rates[std::min(k, rates.size() - 1)];
      (rate < rate_median ? low_us : high_us).push_back(us);
    }
    spans.close(run_span);
    const double run_s = seconds_between(run_start, now_ns());

    // --- Output checks ------------------------------------------------------
    const std::string digest = fnv1a_hex(engine.merged_digest());
    const std::uint64_t events = engine.events_executed();
    if (first_digest.empty()) {
      first_digest = digest;
      first_events = events;
    }
    report.check(digest == first_digest && events == first_events,
                 "estate_day repetition " + std::to_string(reps.index()) +
                     " digest/events differ from the first repetition");
    std::uint64_t ok = 0;
    std::uint64_t bad = 0;
    std::uint64_t issued = 0;
    for (std::size_t c = 0; c < engine.shard_count(); ++c) {
      auto& platform = engine.shard(c).platform();
      issued += engine.shard(c).requests_issued();
      for (std::size_t a = 0; a < platform.app_count(); ++a) {
        ok += platform.stats(a).e2e.size();
        bad += platform.stats(a).failed;
      }
    }
    report.check(ok > 0, "estate_day completed no requests");
    attempted += ok + bad;
    failed += bad;

    e2e.add("setup_s", setup_s, "s");
    e2e.add("ok_frac",
            ok + bad > 0 ? static_cast<double>(ok) / static_cast<double>(ok + bad)
                         : 0.0,
            "frac");
    // Instances per core of the deployed estate.
    double instances = 0.0;
    double cores = 0.0;
    for (std::size_t c = 0; c < engine.shard_count(); ++c) {
      auto& cluster = engine.shard(c).platform().cluster();
      instances += static_cast<double>(cluster.total_instances());
      cores += static_cast<double>(cfg.servers) * cfg.server.cores;
    }
    e2e.add("density", cores > 0.0 ? instances / cores : 0.0, "inst/core");
    runs.add(traced, run_s);
    if (!traced) continue;

    layers.add("sim.run_s", run_s, "s");
    layers.add("sim.events", static_cast<double>(events), "count");
    layers.add("sim.events_per_s", static_cast<double>(events) / run_s, "1/s");
    layers.add("sim.epochs", static_cast<double>(engine.epochs_run()), "count");
    layers.add("sim.messages", static_cast<double>(engine.messages_exchanged()),
               "count");
    layers.add("sim.requests", static_cast<double>(issued), "count");
    if (trace_sink.size() == 0) spans.export_to(trace_sink, setup_start);
  }

  report.end_to_end_medians(e2e);
  runs.report_to(report, options.trace);
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  report.end_to_end("capacity_rps", kNotApplicable, "1/s");
  report.end_to_end("sla_met_frac", kNotApplicable, "frac");
  report.end_to_end("online_mape", kNotApplicable, "frac");
  report_latency(report, quantiles(low_us), quantiles(high_us));
  report.operations(attempted, failed);
  report.info("threads.lanes", 1.0);
  report.info("threads.executor", static_cast<double>(cfg.threads));

  if (options.trace) {
    report.layer_medians(layers);
    write_trace(options, trace_sink, report);
  }
  check_digest_across_runs(options, first_digest, report);
}

}  // namespace perfbench

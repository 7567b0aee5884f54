// Shard-scaling bench (ROADMAP item 1): a 256-server estate under one
// compressed 24h diurnal Azure-like day, simulated two ways:
//
//   monolith — one cluster cell of 256 servers behind a single gateway,
//     advanced by one event loop with a provisioned (above-knee)
//     front-end.
//   sharded — 8 cluster cells of 32 servers (per-cluster shards), each
//     with a private gateway, advanced in lockstep epochs with cross-cell
//     handoffs through the deterministic mailbox. Both estates carry the
//     same aggregate load and complete the same work (event counts agree
//     within ~1%), so events/sec compares equal work.
//
// A gateway forward reads the backends' backlog as a running count, so
// per-event work does not grow with the instances behind a gateway. The
// gap between the two estates is what cells and lanes themselves buy:
// smaller per-cell event queues, against the epoch barrier and mailbox.
//
// Reported: aggregate events/sec for the monolith and for every lane
// count in {1, 2, 4, 8} on the 8-cell topology, the sharded-vs-monolith
// speedup, and a byte-identity bit confirming all lane counts (serial and
// thread-pooled) produced identical state digests. Lane counts change
// wall-clock only; the digest proves it, and the bench exits non-zero
// when it does not hold.
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"
#include "sim/sharded_engine.hpp"

namespace {

using namespace gsight;

struct Measured {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::string digest;
  double events_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

sim::ShardedEngineConfig estate(std::size_t cells, std::size_t servers,
                                std::size_t lanes, std::size_t threads) {
  sim::ShardedEngineConfig cfg;
  cfg.servers = servers;
  cfg.server = sim::ServerConfig::socket();
  cfg.seed = 31337;
  cfg.topology.clusters = cells;
  cfg.topology.shards = lanes;
  cfg.topology.hop_latency_s = 0.05;
  cfg.threads = threads;
  cfg.remote_fraction = 0.05;
  // Provisioned front-end: lift the Figure-14 knee above both estates so
  // neither gateway saturates and both complete the same workload.
  cfg.gateway.instance_knee = 4096.0;
  // One compressed "24h" day (wl::AzureTraceConfig::day_seconds = 600);
  // base_qps is per cell, so both estates carry the same aggregate load.
  cfg.trace.base_qps = 80.0 * (8.0 / static_cast<double>(cells));
  return cfg;
}

Measured run_estate(const sim::ShardedEngineConfig& cfg, double horizon) {
  sim::ShardedEngine engine(cfg);
  engine.deploy_default_load();
  bench::Stopwatch watch;
  engine.run_until(horizon);
  Measured m;
  m.wall_s = watch.seconds();
  m.events = engine.events_executed();
  m.messages = engine.messages_exchanged();
  m.digest = engine.merged_digest();
  return m;
}

}  // namespace

int main() {
  bench::Run run("shard_scaling");
  const double horizon = 600.0;  // one compressed day

  bench::header("monolith: 1 cell x 256 servers (single event loop)");
  const Measured mono = run_estate(estate(1, 256, 1, 1), horizon);
  std::printf("events %llu  wall %.2fs  %.0f events/s\n",
              static_cast<unsigned long long>(mono.events), mono.wall_s,
              mono.events_per_s());

  bench::header("sharded: 8 cells x 32 servers, lane curve");
  const std::vector<std::size_t> lane_counts{1, 2, 4, 8};
  std::vector<Measured> sharded;
  bool identical = true;
  for (const std::size_t lanes : lane_counts) {
    const Measured m = run_estate(estate(8, 32, lanes, 1), horizon);
    if (!sharded.empty() && m.digest != sharded.front().digest) {
      identical = false;
    }
    std::printf("lanes %zu  events %llu  msgs %llu  wall %.2fs  "
                "%.0f events/s\n",
                lanes, static_cast<unsigned long long>(m.events),
                static_cast<unsigned long long>(m.messages), m.wall_s,
                m.events_per_s());
    sharded.push_back(m);
  }
  // Thread-pooled twin of the 8-lane run: same digest, threads only move
  // wall-clock (and only on multi-core hosts).
  const Measured pooled = run_estate(estate(8, 32, 8, 8), horizon);
  if (pooled.digest != sharded.front().digest) identical = false;
  std::printf("lanes 8 (pooled x8 threads)  wall %.2fs  %.0f events/s\n",
              pooled.wall_s, pooled.events_per_s());
  std::printf("byte-identical across lane/thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");

  const double speedup =
      mono.events_per_s() > 0.0
          ? sharded.back().events_per_s() / mono.events_per_s()
          : 0.0;
  bench::rule();
  std::printf("aggregate speedup, 8 shards vs monolith: %.2fx\n", speedup);

  run.result("mono_events_per_s", mono.events_per_s(), "events/s");
  run.result("sharded8_events_per_s", sharded.back().events_per_s(),
             "events/s");
  run.result("speedup_8shards_vs_mono", speedup, "x");
  run.result("digests_byte_identical", identical ? 1.0 : 0.0, "bool");
  run.result("messages_exchanged",
             static_cast<double>(sharded.back().messages), "msgs");

  obs::Json curve = obs::Json::array();
  for (std::size_t i = 0; i < lane_counts.size(); ++i) {
    obs::Json row = obs::Json::object();
    row.set("lanes", static_cast<double>(lane_counts[i]));
    row.set("events_per_s", sharded[i].events_per_s());
    row.set("events", static_cast<double>(sharded[i].events));
    curve.push_back(std::move(row));
  }
  run.report().add_series("lane_curve", std::move(curve));
  run.report().set_meta("estate", "256 servers: 1x256 vs 8x32, 600s day");
  return identical ? 0 : 1;
}

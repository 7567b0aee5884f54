#include "sim/interference.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "workloads/phase.hpp"

namespace gsight::sim {
namespace {

std::vector<ExecObservation> eval(const InterferenceModel& model,
                                  const ServerConfig& server,
                                  const std::vector<wl::Phase>& phases) {
  std::vector<const wl::Phase*> ptrs;
  for (const auto& p : phases) ptrs.push_back(&p);
  std::vector<ExecObservation> out;
  model.evaluate(server, ptrs, out);
  return out;
}

TEST(Interference, SoloRunsAtFullSpeed) {
  InterferenceModel model;
  const auto server = ServerConfig::tianjin_testbed();
  for (const auto& phase :
       {wl::cpu_phase("c", 1.0), wl::memory_phase("m", 1.0),
        wl::disk_phase("d", 1.0), wl::net_phase("n", 1.0),
        wl::mixed_phase("x", 1.0)}) {
    const auto ob = model.solo(server, phase);
    EXPECT_NEAR(ob.rate, 1.0, 1e-9) << phase.name;
    EXPECT_NEAR(ob.ipc, phase.uarch.base_ipc, 1e-9) << phase.name;
    EXPECT_NEAR(ob.uarch_slowdown, 1.0, 1e-9) << phase.name;
  }
}

TEST(Interference, EmptyServerNoObservations) {
  InterferenceModel model;
  std::vector<ExecObservation> out(2);  // stale entries are dropped
  model.evaluate(ServerConfig::tiny(), {}, out);
  EXPECT_TRUE(out.empty());
}

TEST(Interference, NullSlotsAreSkipped) {
  InterferenceModel model;
  const auto phase = wl::cpu_phase("c", 1.0);
  std::vector<const wl::Phase*> ptrs{nullptr, &phase, nullptr};
  // A reused output vector: the null slot is reset, not left stale.
  std::vector<ExecObservation> out(5);
  out[0].ipc = 9.0;
  model.evaluate(ServerConfig::tiny(), ptrs, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].ipc, 0.0);
  EXPECT_NEAR(out[1].rate, 1.0, 1e-9);
}

TEST(Interference, CpuOversubscriptionTimeSlices) {
  InterferenceModel model;
  auto server = ServerConfig::tiny();  // 4 cores
  std::vector<wl::Phase> phases(4, wl::cpu_phase("c", 1.0, /*cores=*/2.0));
  const auto out = eval(model, server, phases);  // 8 cores demanded on 4
  for (const auto& ob : out) {
    EXPECT_LT(ob.rate, 0.6);  // ~2x time slicing
    EXPECT_NEAR(ob.cpu_share, 0.5, 1e-9);
  }
}

TEST(Interference, CacheContentionDegradesIpc) {
  InterferenceModel model;
  auto server = ServerConfig::tiny();  // 8 MB LLC
  // Two 6 MB working sets on an 8 MB cache must inflate misses.
  std::vector<wl::Phase> phases(
      2, wl::memory_phase("m", 1.0, /*cores=*/1.0, /*llc_mb=*/6.0,
                          /*membw=*/2.0));
  const auto out = eval(model, server, phases);
  const auto solo = model.solo(server, phases[0]);
  for (const auto& ob : out) {
    EXPECT_LT(ob.ipc, solo.ipc * 0.95);
    EXPECT_GT(ob.l3_mpki, solo.l3_mpki);
    EXPECT_LT(ob.llc_occupancy_mb, 6.0);
  }
}

TEST(Interference, NetworkBoundCorunnerBarelyDentsIpc) {
  // Observation 1: iperf-like colocation does not move the victim's IPC.
  InterferenceModel model;
  auto server = ServerConfig::tianjin_testbed();
  const auto victim = wl::cpu_phase("victim", 1.0, 2.0, 4.0, 2.0);
  const auto iperf = wl::net_phase("iperf", 1.0, /*net_mbps=*/2000.0);
  const auto out = eval(model, server, {victim, iperf});
  const auto solo = model.solo(server, victim);
  EXPECT_GT(out[0].ipc, solo.ipc * 0.97);
}

TEST(Interference, CpuBoundCorunnerHurtsMemoryBoundVictim) {
  InterferenceModel model;
  auto server = ServerConfig::tiny();
  const auto victim = wl::memory_phase("victim", 1.0, 1.0, 6.0, 4.0);
  const auto matmul = wl::cpu_phase("matmul", 1.0, 4.0, 6.0, 2.6);
  const auto out = eval(model, server, {victim, matmul});
  const auto solo = model.solo(server, victim);
  EXPECT_LT(out[0].ipc, solo.ipc * 0.9);
  EXPECT_LT(out[0].rate, 0.95);
}

TEST(Interference, DiskChannelQueueing) {
  InterferenceModel model;
  auto server = ServerConfig::tiny();  // 400 MB/s disk
  std::vector<wl::Phase> phases(2, wl::disk_phase("d", 1.0, 300.0));
  const auto out = eval(model, server, phases);
  // 600 on 400 MB/s: heavy queueing on the disk fraction.
  for (const auto& ob : out) EXPECT_LT(ob.rate, 0.75);
}

TEST(Interference, MemoryBandwidthSaturation) {
  InterferenceModel model;
  auto server = ServerConfig::tiny();  // 10 GB/s
  std::vector<wl::Phase> phases(
      3, wl::memory_phase("m", 1.0, 1.0, 2.0, /*membw=*/5.0));
  const auto out = eval(model, server, phases);
  const auto solo = model.solo(server, phases[0]);
  for (const auto& ob : out) {
    EXPECT_LT(ob.ipc, solo.ipc);
    EXPECT_LT(ob.membw_gbps, 5.0);  // achieved < demanded
  }
}

TEST(Interference, SwapPenaltyOnMemoryOvercommit) {
  InterferenceModel model;
  auto server = ServerConfig::tiny();  // 16 GB
  auto big = wl::cpu_phase("big", 1.0);
  big.demand.mem_gb = 20.0;  // over capacity alone
  const auto ob = model.solo(server, big);
  EXPECT_LT(ob.rate, 0.5);
}

TEST(Interference, MoreCorunnersNeverSpeedYouUp) {
  InterferenceModel model;
  auto server = ServerConfig::tiny();
  const auto victim = wl::mixed_phase("v", 1.0);
  std::vector<wl::Phase> others;
  double prev_rate = 1e9;
  for (int k = 0; k < 6; ++k) {
    std::vector<wl::Phase> all{victim};
    for (const auto& o : others) all.push_back(o);
    const double rate = eval(model, server, all)[0].rate;
    EXPECT_LE(rate, prev_rate + 1e-9) << k;
    prev_rate = rate;
    others.push_back(wl::mixed_phase("o", 1.0));
  }
}

TEST(Interference, CountersRespondToContention) {
  InterferenceModel model;
  auto server = ServerConfig::tiny();
  const auto victim = wl::memory_phase("v", 1.0, 2.0, 6.0, 4.0);
  const auto solo = model.solo(server, victim);
  std::vector<wl::Phase> crowd(3, wl::cpu_phase("c", 1.0, 2.0, 4.0, 2.0));
  std::vector<wl::Phase> all{victim};
  for (const auto& c : crowd) all.push_back(c);
  const auto ob = eval(model, server, all)[0];
  EXPECT_GT(ob.ctx_per_s, solo.ctx_per_s);        // time slicing
  EXPECT_LT(ob.cpu_freq_ghz, solo.cpu_freq_ghz);  // frequency droop
  EXPECT_GE(ob.l1d_mpki, solo.l1d_mpki);          // slice pollution
  EXPECT_GE(ob.dtlb_mpki, solo.dtlb_mpki);
}

TEST(Interference, FractionsOutsideChannelsAreImmune) {
  InterferenceModel model;
  auto server = ServerConfig::tiny();
  // A phase that is 100% "other" (blocked on an external service).
  wl::Phase idle;
  idle.name = "blocked";
  idle.solo_duration_s = 1.0;
  idle.demand.cores = 0.1;
  idle.demand.frac_cpu = 0.0;
  std::vector<wl::Phase> all{idle, wl::cpu_phase("c", 1.0, 8.0)};
  const auto out = eval(model, server, all);
  EXPECT_NEAR(out[0].rate, 1.0, 1e-6);
}

}  // namespace
}  // namespace gsight::sim

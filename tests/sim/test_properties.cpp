// Property-style sweeps over the simulator's invariants.
#include <gtest/gtest.h>

#include "sim/interference.hpp"
#include "sim/recorder.hpp"
#include "stats/rng.hpp"
#include "workloads/phase.hpp"

namespace gsight::sim {
namespace {

wl::Phase random_phase(stats::Rng& rng) {
  wl::Phase p;
  p.name = "rand";
  p.solo_duration_s = rng.uniform(0.001, 10.0);
  p.demand.cores = rng.uniform(0.1, 8.0);
  p.demand.llc_mb = rng.uniform(0.1, 20.0);
  p.demand.membw_gbps = rng.uniform(0.1, 12.0);
  p.demand.disk_mbps = rng.uniform(0.0, 400.0);
  p.demand.net_mbps = rng.uniform(0.0, 2000.0);
  p.demand.mem_gb = rng.uniform(0.1, 8.0);
  p.demand.frac_cpu = rng.uniform(0.2, 0.9);
  p.demand.frac_disk = rng.uniform(0.0, 1.0 - p.demand.frac_cpu);
  p.demand.frac_net =
      rng.uniform(0.0, 1.0 - p.demand.frac_cpu - p.demand.frac_disk);
  p.uarch.base_ipc = rng.uniform(0.5, 3.0);
  p.uarch.l2_mpki = rng.uniform(1.0, 25.0);
  p.uarch.l3_mpki = rng.uniform(0.2, 12.0);
  p.uarch.mem_lp = rng.uniform(1.0, 8.0);
  return p;
}

class InterferenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterferenceProperty, SoloAlwaysRunsAtRateOne) {
  stats::Rng rng(GetParam());
  InterferenceModel model;
  const auto server = ServerConfig::socket();
  for (int i = 0; i < 50; ++i) {
    auto p = random_phase(rng);
    p.demand.cores = std::min(p.demand.cores, server.cores);
    p.demand.mem_gb = std::min(p.demand.mem_gb, server.mem_gb);
    const auto ob = model.solo(server, p);
    EXPECT_NEAR(ob.rate, 1.0, 1e-9);
    EXPECT_NEAR(ob.ipc, p.uarch.base_ipc, 1e-9);
  }
}

TEST_P(InterferenceProperty, ColocationNeverExceedsSoloSpeed) {
  stats::Rng rng(GetParam() ^ 0xF00D);
  InterferenceModel model;
  const auto server = ServerConfig::socket();
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<wl::Phase> phases;
    const std::size_t n = 2 + rng.uniform_index(5);
    for (std::size_t i = 0; i < n; ++i) phases.push_back(random_phase(rng));
    std::vector<const wl::Phase*> ptrs;
    for (const auto& p : phases) ptrs.push_back(&p);
    std::vector<ExecObservation> obs;
    model.evaluate(server, ptrs, obs);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(obs[i].rate, 1.0 + 1e-9);
      EXPECT_LE(obs[i].ipc, phases[i].uarch.base_ipc + 1e-9);
      EXPECT_GT(obs[i].rate, 0.0);
      EXPECT_GE(obs[i].uarch_slowdown, 1.0 - 1e-9);
    }
  }
}

TEST_P(InterferenceProperty, IdenticalPhasesGetIdenticalObservations) {
  stats::Rng rng(GetParam() ^ 0xBEEF);
  InterferenceModel model;
  const auto server = ServerConfig::socket();
  const auto p = random_phase(rng);
  std::vector<const wl::Phase*> ptrs{&p, &p, &p};
  std::vector<ExecObservation> obs;
  model.evaluate(server, ptrs, obs);
  for (std::size_t i = 1; i < obs.size(); ++i) {
    EXPECT_DOUBLE_EQ(obs[i].rate, obs[0].rate);
    EXPECT_DOUBLE_EQ(obs[i].ipc, obs[0].ipc);
    EXPECT_DOUBLE_EQ(obs[i].llc_occupancy_mb, obs[0].llc_occupancy_mb);
  }
}

TEST_P(InterferenceProperty, BiggerServerNeverSlower) {
  stats::Rng rng(GetParam() ^ 0xCAFE);
  InterferenceModel model;
  auto small = ServerConfig::socket();
  auto big = small;
  big.cores *= 2;
  big.llc_mb *= 2;
  big.membw_gbps *= 2;
  big.disk_mbps *= 2;
  big.net_mbps *= 2;
  big.mem_gb *= 2;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<wl::Phase> phases;
    for (int i = 0; i < 4; ++i) phases.push_back(random_phase(rng));
    std::vector<const wl::Phase*> ptrs;
    for (const auto& p : phases) ptrs.push_back(&p);
    std::vector<ExecObservation> obs_small;
    std::vector<ExecObservation> obs_big;
    model.evaluate(small, ptrs, obs_small);
    model.evaluate(big, ptrs, obs_big);
    for (std::size_t i = 0; i < phases.size(); ++i) {
      EXPECT_GE(obs_big[i].rate, obs_small[i].rate - 1e-9) << trial;
      EXPECT_GE(obs_big[i].ipc, obs_small[i].ipc - 1e-9) << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterferenceProperty,
                         ::testing::Values(1, 7, 42, 1234));

// (Window splitting of long slices is covered end-to-end by
// Recorder.WindowsCoverBusyTime in test_request_platform.cpp.)
TEST(MetricAccum, WeightedMeanIsExact) {
  ExecObservation ob;
  ob.ipc = 2.0;
  wl::Phase phase = wl::cpu_phase("p", 10.0);
  MetricAccum acc;
  acc.add(7.25, ob, phase);
  ob.ipc = 1.0;
  acc.add(2.75, ob, phase);
  const auto f = acc.finalized();
  EXPECT_NEAR(f.dt, 10.0, 1e-12);
  EXPECT_NEAR(f.ipc, (7.25 * 2.0 + 2.75 * 1.0) / 10.0, 1e-12);
}

TEST(MetricAccumProperty, MergeEqualsSequential) {
  stats::Rng rng(3);
  ExecObservation ob;
  wl::Phase phase = wl::mixed_phase("m", 1.0);
  MetricAccum a, b, both;
  for (int i = 0; i < 20; ++i) {
    ob.ipc = rng.uniform(0.5, 3.0);
    ob.l3_mpki = rng.uniform(0.0, 10.0);
    const double dt = rng.uniform(0.01, 1.0);
    (i % 2 == 0 ? a : b).add(dt, ob, phase);
    both.add(dt, ob, phase);
  }
  a.merge(b);
  EXPECT_NEAR(a.dt, both.dt, 1e-12);
  EXPECT_NEAR(a.finalized().ipc, both.finalized().ipc, 1e-12);
  EXPECT_NEAR(a.finalized().l3_mpki, both.finalized().l3_mpki, 1e-12);
}

TEST(MetricAccum, FinalizedOfEmptyIsZero) {
  const MetricAccum acc;
  const auto f = acc.finalized();
  EXPECT_DOUBLE_EQ(f.dt, 0.0);
  EXPECT_DOUBLE_EQ(f.ipc, 0.0);
}

}  // namespace
}  // namespace gsight::sim

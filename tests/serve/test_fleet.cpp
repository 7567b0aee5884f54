// PredictionFleet tests — routing, the fleet-wide version watermark,
// drain/re-shard conservation, and the request-struct validation that
// every serve entry point now goes through. Suites are named ServeFleet*
// so the check.sh TSan stage picks the threaded ones up via its
// 'Serve|Fleet' name match.
#include "serve/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <ios>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ml/incremental_forest.hpp"
#include "obs/live_stream.hpp"
#include "serve/load_driver.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
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

FleetRequest sync_fleet_request(std::size_t replicas) {
  FleetRequest fr;
  fr.replicas = replicas;
  fr.service.feature_dim = kDim;
  fr.service.worker_threads = 0;
  fr.service.max_batch = 8;
  fr.service.queue_capacity = 128;
  fr.service.train_batch = 16;
  fr.service.batch_linger = std::chrono::microseconds(10);
  return fr;
}

std::vector<double> features_of(std::uint64_t key) {
  std::vector<double> x(kDim);
  for (std::size_t d = 0; d < kDim; ++d) {
    x[d] = static_cast<double>((key * 31 + d) % 97) / 97.0;
  }
  return x;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(ServeFleetRouter, ConsistentHashIsDeterministicAcrossInstances) {
  Router a(RouterPolicy::kConsistentHash, 4, 64);
  Router b(RouterPolicy::kConsistentHash, 4, 64);
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(a.route(key, {}), b.route(key, {})) << "key " << key;
  }
}

TEST(ServeFleetRouter, DrainMovesOnlyTheDrainedReplicasKeys) {
  Router router(RouterPolicy::kConsistentHash, 4, 64);
  std::map<std::uint64_t, std::size_t> before;
  for (std::uint64_t key = 0; key < 1024; ++key) {
    before[key] = *router.route(key, {});
  }
  router.set_active(1, false);
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < 1024; ++key) {
    const std::size_t now = *router.route(key, {});
    EXPECT_NE(now, 1u);
    if (before[key] == 1) {
      ++moved;
    } else {
      // Minimal disruption: keys that never touched the drained replica
      // keep their assignment — the consistent-hash contract.
      EXPECT_EQ(now, before[key]) << "key " << key;
    }
  }
  EXPECT_GT(moved, 0u) << "some keys must have lived on replica 1";
  // Re-adding restores the exact original assignment.
  router.set_active(1, true);
  for (std::uint64_t key = 0; key < 1024; ++key) {
    EXPECT_EQ(*router.route(key, {}), before[key]);
  }
}

TEST(ServeFleetRouter, LeastQueuedPicksMinDepthWithLowestIdTie) {
  Router router(RouterPolicy::kLeastQueued, 4, 8);
  EXPECT_EQ(*router.route(0, {5, 2, 7, 2}), 1u);  // tie 1 vs 3 -> lowest id
  EXPECT_EQ(*router.route(9, {0, 0, 0, 0}), 0u);
  router.set_active(0, false);
  EXPECT_EQ(*router.route(9, {0, 0, 0, 0}), 1u);  // inactive never routed
}

TEST(ServeFleetRouter, NoActiveReplicaRoutesNowhere) {
  Router router(RouterPolicy::kConsistentHash, 2, 8);
  router.set_active(0, false);
  router.set_active(1, false);
  EXPECT_FALSE(router.route(7, {}).has_value());
  EXPECT_EQ(router.active_count(), 0u);
}

TEST(ServeFleetRouter, PolicyNamesRoundTrip) {
  EXPECT_STREQ(router_policy_name(RouterPolicy::kConsistentHash), "hash");
  EXPECT_STREQ(router_policy_name(RouterPolicy::kLeastQueued), "least");
  EXPECT_EQ(parse_router_policy("hash"), RouterPolicy::kConsistentHash);
  EXPECT_EQ(parse_router_policy("least"), RouterPolicy::kLeastQueued);
  EXPECT_FALSE(parse_router_policy("round-robin").has_value());
}

// ---------------------------------------------------------------------------
// Request validation (the one construction path for every entry point)
// ---------------------------------------------------------------------------

template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ServeFleetValidate, FleetRequestNamesTheBadField) {
  FleetRequest fr = sync_fleet_request(2);
  fr.replicas = 0;
  EXPECT_NE(invalid_argument_message([&] { fr.validate(); })
                .find("FleetRequest: replicas"),
            std::string::npos);

  fr = sync_fleet_request(2);
  fr.vnodes_per_replica = 0;
  EXPECT_NE(invalid_argument_message([&] { fr.validate(); })
                .find("vnodes_per_replica"),
            std::string::npos);

  fr = sync_fleet_request(2);
  fr.drains.push_back({5, 10, 20});
  EXPECT_NE(invalid_argument_message([&] { fr.validate(); })
                .find("drains[].replica"),
            std::string::npos);

  fr = sync_fleet_request(2);
  fr.drains.push_back({1, 20, 10});
  EXPECT_NE(invalid_argument_message([&] { fr.validate(); })
                .find("readd_at must come after"),
            std::string::npos);
}

TEST(ServeFleetValidate, EmbeddedServiceConfigIsValidatedToo) {
  FleetRequest fr = sync_fleet_request(2);
  fr.service.feature_dim = 0;
  EXPECT_NE(invalid_argument_message([&] { fr.validate(); })
                .find("ServiceConfig: feature_dim"),
            std::string::npos);
  fr = sync_fleet_request(2);
  fr.service.queue_capacity = 0;
  EXPECT_NE(invalid_argument_message([&] { fr.validate(); })
                .find("queue_capacity"),
            std::string::npos);
  // The fleet constructor routes through validate(): a bad request can
  // never become a fleet.
  FleetRequest bad = sync_fleet_request(0);
  EXPECT_THROW(PredictionFleet(bad, warm_model(1, 0)), std::invalid_argument);
}

TEST(ServeFleetValidate, DriverRequestNamesTheBadField) {
  DriverRequest lc;
  lc.requests = 0;
  EXPECT_NE(invalid_argument_message([&] { lc.validate(); })
                .find("DriverRequest: requests"),
            std::string::npos);
  lc = DriverRequest{};
  lc.rate_hz = 0.0;
  EXPECT_NE(
      invalid_argument_message([&] { lc.validate(); }).find("rate_hz"),
      std::string::npos);
  lc = DriverRequest{};
  lc.clients = 0;
  EXPECT_NE(
      invalid_argument_message([&] { lc.validate(); }).find("clients"),
      std::string::npos);
  // LoadDriver's constructor enforces it.
  DriverRequest bad;
  bad.requests = 0;
  EXPECT_THROW(LoadDriver{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SnapshotSlot coherence (regression for the torn version/swaps pair)
// ---------------------------------------------------------------------------

std::shared_ptr<const ModelSnapshot> snapshot_v(std::uint64_t version) {
  auto snap = std::make_shared<ModelSnapshot>();
  snap->version = version;
  return snap;
}

TEST(ServeFleetSnapshotSlot, InfoReadsVersionAndSwapsCoherently) {
  SnapshotSlot slot;
  EXPECT_EQ(slot.info().version, 0u);
  EXPECT_EQ(slot.info().swaps, 0u);
  EXPECT_TRUE(slot.publish(snapshot_v(1)));
  EXPECT_TRUE(slot.publish(snapshot_v(2)));
  EXPECT_FALSE(slot.publish(snapshot_v(2)));  // duplicate rejected
  const auto info = slot.info();
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.swaps, 2u);
}

TEST(ServeFleetSnapshotSlotThreaded, InfoIsNeverTorn) {
  SnapshotSlot slot;
  std::atomic<bool> stop{false};
  // The writer publishes version i on the i-th successful swap, so a
  // coherent (version, swaps) pair always has version == swaps. The old
  // code bumped swaps outside the slot mutex after the pointer swap, so
  // a concurrent reader could see version == swaps + 1.
  std::thread writer([&] {
    for (std::uint64_t v = 1; v <= 2000; ++v) {
      slot.publish(snapshot_v(v));
      if (v % 64 == 0) std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  });
  // A floor of reads keeps the check meaningful even when one core
  // serialises the two threads into coarse slices.
  std::size_t reads = 0;
  while (!stop.load(std::memory_order_acquire) || reads < 1000) {
    const auto info = slot.info();
    ASSERT_EQ(info.version, info.swaps) << "torn version/swaps pair";
    ++reads;
  }
  writer.join();
  EXPECT_GE(reads, 1000u);
  EXPECT_EQ(slot.info().version, 2000u);
}

// ---------------------------------------------------------------------------
// Synchronous fleet: serving, watermark, drain/re-add
// ---------------------------------------------------------------------------

TEST(ServeFleetSync, RoutesServesAndAdvancesTheWatermark) {
  PredictionFleet fleet(sync_fleet_request(3), warm_model(3, 64));
  fleet.start();
  // The warm snapshot reached every replica before any traffic.
  EXPECT_EQ(fleet.watermark(), 1u);

  std::atomic<std::size_t> done{0};
  for (std::uint64_t key = 0; key < 200; ++key) {
    auto x = features_of(key);
    if (key % 4 == 0) fleet.observe(x, LoadDriver::label_of(x));
    const auto routed = fleet.submit(key, std::move(x),
                                     [&done](const PredictResult&) {
                                       done.fetch_add(1);
                                     });
    ASSERT_TRUE(routed.has_value());
    while (fleet.poll() > 0) {
    }
  }
  while (fleet.poll() > 0) {
  }
  fleet.train_now();

  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.submitted, 200u);
  EXPECT_EQ(s.completed, 200u);
  EXPECT_EQ(done.load(), 200u);
  EXPECT_EQ(s.shed, 0u);
  // 50 observations over train_batch=16 -> at least two training rounds,
  // each fanned out to all three replicas.
  EXPECT_GE(s.train_rounds, 2u);
  EXPECT_GT(s.latest_version, 1u);
  EXPECT_EQ(s.watermark, s.latest_version);
  EXPECT_EQ(s.stale_replicas, 0u);
  EXPECT_GE(s.publishes, 3u * s.train_rounds);
  // Every replica took some share of a 200-key uniform stream.
  for (std::size_t r = 0; r < 3; ++r) EXPECT_GT(s.routed[r], 0u);
  fleet.stop();
}

TEST(ServeFleetSync, DrainedReplicaGoesStaleAndReaddCatchesUp) {
  PredictionFleet fleet(sync_fleet_request(3), warm_model(5, 64));
  fleet.start();
  fleet.drain(1);
  EXPECT_FALSE(fleet.active(1));
  EXPECT_EQ(fleet.stats().active_replicas, 2u);

  // Train past the drained replica: it stops receiving publishes.
  for (std::uint64_t i = 0; i < 32; ++i) {
    const auto x = features_of(i);
    fleet.observe(x, LoadDriver::label_of(x));
  }
  ASSERT_TRUE(fleet.train_now());
  FleetStats s = fleet.stats();
  EXPECT_GT(s.latest_version, 1u);
  EXPECT_LT(s.replica_versions[1], s.latest_version) << "drained -> stale";
  EXPECT_EQ(s.watermark, s.latest_version)
      << "watermark spans active replicas only";

  // Re-add catches the replica up *before* it rejoins, so the watermark
  // cannot regress through the transition.
  const std::uint64_t wm_before = fleet.watermark();
  fleet.readd(1);
  EXPECT_TRUE(fleet.active(1));
  s = fleet.stats();
  EXPECT_EQ(s.replica_versions[1], s.latest_version);
  EXPECT_GE(s.watermark, wm_before);
  EXPECT_EQ(s.drains, 1u);
  EXPECT_EQ(s.readds, 1u);
  fleet.stop();
}

TEST(ServeFleetSync, DrainKeepsQueuedRequestsServable) {
  PredictionFleet fleet(sync_fleet_request(2), warm_model(7, 64));
  fleet.start();
  // Fill queues on both replicas without polling.
  std::atomic<std::size_t> done{0};
  std::size_t accepted = 0;
  for (std::uint64_t key = 0; key < 64; ++key) {
    if (fleet.submit(key, features_of(key),
                     [&done](const PredictResult&) { done.fetch_add(1); })) {
      ++accepted;
    }
  }
  fleet.drain(0);
  // poll() still serves the draining replica: nothing is dropped.
  while (fleet.poll() > 0) {
  }
  EXPECT_EQ(done.load(), accepted);
  EXPECT_EQ(fleet.stats().completed, accepted);
  EXPECT_EQ(fleet.replica(0).queue_depth(), 0u);
  fleet.stop();
}

TEST(ServeFleetSync, DeterministicDrainUnderLoadTwinRunsAreIdentical) {
  DriverRequest lc;
  lc.requests = 1500;
  lc.rate_hz = 150'000.0;
  lc.observe_every = 8;
  lc.live_every = 128;
  lc.seed = 99;

  LoadOutcome outcomes[2];
  FleetStats stats[2];
  std::string streams[2];
  for (int run = 0; run < 2; ++run) {
    FleetRequest fr = sync_fleet_request(4);
    fr.drains = {{1, 400, 900}, {2, 600, 0}};
    PredictionFleet fleet(fr, warm_model(11, 64));
    std::ostringstream os;
    obs::LiveStreamSink sink(os);
    sink.hello("twin-test", {{"seed", "99"}});
    fleet.set_live_sink(&sink);
    fleet.start();
    LoadDriver driver(lc);
    outcomes[run] = driver.run(fleet);
    fleet.stop();
    stats[run] = fleet.stats();
    streams[run] = os.str();
  }
  // Conservation under a mid-run drain + re-add and a permanent drain:
  // nothing lost, nothing double-counted.
  EXPECT_EQ(outcomes[0].submitted, 1500u);
  EXPECT_EQ(outcomes[0].completed + outcomes[0].shed, 1500u);
  EXPECT_EQ(stats[0].submitted, stats[0].completed);
  EXPECT_EQ(stats[0].drains, 2u);
  EXPECT_EQ(stats[0].readds, 1u);
  // The twin run reproduces the outcome, the counters and the live
  // stream byte-for-byte (the unit form of check.sh's fleet gate).
  EXPECT_EQ(outcomes[0].completed, outcomes[1].completed);
  EXPECT_EQ(outcomes[0].shed, outcomes[1].shed);
  EXPECT_EQ(outcomes[0].duration_s, outcomes[1].duration_s);
  EXPECT_EQ(outcomes[0].latency_p99_us, outcomes[1].latency_p99_us);
  EXPECT_EQ(stats[0].train_rounds, stats[1].train_rounds);
  EXPECT_EQ(stats[0].publishes, stats[1].publishes);
  EXPECT_EQ(stats[0].latest_version, stats[1].latest_version);
  EXPECT_EQ(stats[0].watermark, stats[1].watermark);
  EXPECT_EQ(stats[0].routed, stats[1].routed);
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]) << "live streams must be byte-identical";
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Golden digest of a synchronous 4-replica run with a mid-run drain +
// re-add, a permanent drain and the live stream on: every LoadOutcome
// field (doubles in hexfloat), every FleetStats counter and the live
// NDJSON text. Pins the deterministic fleet driver to a fixed output,
// independently of the twin run above; a deliberate change to the
// driver's timeline must update the digest and say why.
TEST(ServeFleetSync, DeterministicDrainUnderLoadGoldenDigest) {
  DriverRequest lc;
  lc.requests = 1500;
  lc.rate_hz = 150'000.0;
  lc.observe_every = 8;
  lc.live_every = 128;
  lc.seed = 99;
  FleetRequest fr = sync_fleet_request(4);
  fr.drains = {{1, 400, 900}, {2, 600, 0}};
  PredictionFleet fleet(fr, warm_model(11, 64));
  std::ostringstream live;
  obs::LiveStreamSink sink(live);
  sink.hello("golden-test", {{"seed", "99"}});
  fleet.set_live_sink(&sink);
  fleet.start();
  LoadDriver driver(lc);
  const auto o = driver.run(fleet);
  fleet.stop();
  const FleetStats s = fleet.stats();

  std::ostringstream out;
  out << std::hexfloat << o.submitted << ' ' << o.completed << ' ' << o.shed
      << ' ' << o.duration_s << ' ' << o.throughput_rps << ' '
      << o.latency_p50_us << ' ' << o.latency_p95_us << ' '
      << o.latency_p99_us << ' ' << o.latency_mean_us << ' '
      << o.latency_max_us << '\n'
      << s.submitted << ' ' << s.completed << ' ' << s.shed << ' '
      << s.observations << ' ' << s.observations_shed << ' '
      << s.train_rounds << ' ' << s.publishes << ' ' << s.drains << ' '
      << s.readds << ' ' << s.latest_version << ' ' << s.watermark << ' '
      << s.active_replicas << ' ' << s.stale_replicas << '\n';
  for (const std::uint64_t c : s.routed) out << c << ' ';
  out << '\n';
  for (const std::uint64_t v : s.replica_versions) out << v << ' ';
  out << '\n' << live.str();
  EXPECT_EQ(s.submitted, s.completed);
  EXPECT_EQ(fnv1a(out.str()), 0xd6ec32a33a338b48ull) << std::hex << fnv1a(out.str());
}

// ---------------------------------------------------------------------------
// Threaded fleet (TSan-covered)
// ---------------------------------------------------------------------------

FleetRequest threaded_fleet_request(std::size_t replicas) {
  FleetRequest fr = sync_fleet_request(replicas);
  fr.service.worker_threads = 1;
  fr.service.queue_capacity = 512;
  fr.service.batch_linger = std::chrono::microseconds(20);
  return fr;
}

TEST(ServeFleetThreaded, WatermarkIsMonotonicUnderConcurrentPublishes) {
  PredictionFleet fleet(threaded_fleet_request(3), warm_model(13, 64));
  fleet.start();
  std::atomic<int> running{3};

  // Two writers race training rounds (fan-out publishes) while a third
  // drains and re-adds a replica; the reader asserts the watermark never
  // moves backwards through any of it.
  auto trainer = [&](std::uint64_t salt) {
    stats::Rng rng(salt);
    std::vector<double> x(kDim);
    for (int round = 0; round < 40; ++round) {
      for (std::size_t i = 0; i < 8; ++i) {
        for (auto& v : x) v = rng.uniform();
        fleet.observe(x, LoadDriver::label_of(x));
      }
      fleet.train_now();
    }
    running.fetch_sub(1, std::memory_order_acq_rel);
  };
  std::thread t1(trainer, 17);
  std::thread t2(trainer, 19);
  std::thread cycler([&] {
    for (int i = 0; i < 25; ++i) {
      fleet.drain(2);
      fleet.readd(2);
    }
    running.fetch_sub(1, std::memory_order_acq_rel);
  });
  std::uint64_t last = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    const std::uint64_t wm = fleet.watermark();
    ASSERT_GE(wm, last) << "watermark regressed";
    last = wm;
    std::this_thread::yield();
  }
  t1.join();
  t2.join();
  cycler.join();
  const FleetStats s = fleet.stats();
  EXPECT_EQ(fleet.watermark(), s.latest_version);
  EXPECT_GE(s.train_rounds, 1u);
  fleet.stop();
}

TEST(ServeFleetThreaded, DrainReaddUnderLoadLosesNothing) {
  FleetRequest fr = threaded_fleet_request(3);
  fr.drains = {{1, 500, 1500}};
  PredictionFleet fleet(fr, warm_model(15, 64));
  fleet.start();
  DriverRequest lc;
  lc.requests = 2500;
  lc.rate_hz = 30'000.0;
  lc.observe_every = 8;
  lc.seed = 23;
  LoadDriver driver(lc);
  const auto outcome = driver.run(fleet);
  fleet.stop();
  const FleetStats s = fleet.stats();
  EXPECT_EQ(outcome.submitted, 2500u);
  EXPECT_EQ(outcome.completed + outcome.shed, 2500u);
  // Fleet-level conservation: every accepted request completed exactly
  // once, across the mid-run drain and re-add.
  EXPECT_EQ(s.submitted, s.completed);
  EXPECT_EQ(s.submitted, outcome.completed);
  EXPECT_EQ(s.drains, 1u);
  EXPECT_EQ(s.readds, 1u);
  EXPECT_GT(outcome.completed, 0u);
  fleet.stop();
}

TEST(ServeFleetThreaded, ClosedLoopCompletesRequestedCount) {
  PredictionFleet fleet(threaded_fleet_request(3), warm_model(29, 64));
  fleet.start();
  DriverRequest lc;
  lc.mode = DriverRequest::Mode::kClosedLoop;
  lc.requests = 600;
  lc.clients = 4;
  lc.observe_every = 8;
  lc.seed = 31;
  LoadDriver driver(lc);
  const auto outcome = driver.run(fleet);
  fleet.stop();
  const FleetStats s = fleet.stats();
  // Each client waits on its own promise, so at most `clients` requests
  // are ever in flight against 512-deep queues: nothing sheds.
  EXPECT_EQ(outcome.shed, 0u);
  EXPECT_EQ(outcome.submitted, 600u);
  EXPECT_EQ(outcome.submitted, outcome.completed);
  EXPECT_GT(outcome.latency_p50_us, 0.0);
  // Fleet-level conservation: every routed request completed once.
  EXPECT_EQ(s.submitted, s.completed);
  EXPECT_EQ(s.submitted, outcome.completed);
  EXPECT_EQ(s.shed, 0u);
}

TEST(ServeFleetThreaded, StopShedsLateSubmissionsInsteadOfHanging) {
  PredictionFleet fleet(threaded_fleet_request(2), warm_model(27, 64));
  fleet.start();
  fleet.stop();
  EXPECT_FALSE(fleet.submit(1, features_of(1), nullptr).has_value());
  EXPECT_FALSE(fleet.observe(features_of(2), 0.5));
  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.observations_shed, 1u);
}

}  // namespace
}  // namespace gsight::serve

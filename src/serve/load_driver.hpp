// LoadDriver — synthetic load against a PredictionService or a whole
// PredictionFleet, the harness behind `gsight serve-bench`. Two loop
// disciplines (classic load-testing shapes):
//
//   open loop   — requests arrive on a Poisson schedule at rate_hz
//                 regardless of completions, the arrival process a
//                 serverless gateway actually sees. Overload therefore
//                 shows up as shedding, not as a silently slowed client.
//   closed loop — `clients` concurrent callers each submit, wait for the
//                 result, and repeat: the scheduler-in-the-loop shape.
//
// run() picks the regime from the target's worker_threads. Against a
// synchronous target (worker_threads == 0) the driver runs the open loop
// on a virtual timeline (ManualClock): arrivals, per-replica batch
// deadlines and completions all advance deterministically, the
// FleetRequest drain schedule fires at its request indices, and (with
// live_every set) metric deltas stream to the fleet's live sink — so two
// runs with the same seed, even across a mid-run drain/re-add, produce
// byte-identical latency distributions, counters and live streams: the
// serve-bench determinism gate. Against a threaded target both loops run
// in real time. Each regime is one loop over a fleet; a service is
// driven as a fleet of one (replica 0, no drain schedule, no live sink).
//
// A configurable fraction of requests doubles as labelled observations
// (features + synthetic ground truth) so the trainer publishes fresh
// snapshots *under load* — the hot-swap path the bench certifies.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/service.hpp"

namespace gsight::serve {

/// All load-shape knobs in one request struct (the validate() pattern of
/// ClusterSpec/GatewayConfig/FleetRequest).
struct DriverRequest {
  enum class Mode { kOpenLoop, kClosedLoop };
  Mode mode = Mode::kOpenLoop;
  /// Total requests to submit (open loop) / to complete (closed loop).
  std::size_t requests = 10000;
  /// Open-loop Poisson arrival rate.
  double rate_hz = 50'000.0;
  /// Closed-loop concurrent clients.
  std::size_t clients = 4;
  /// Every n-th request also feeds a labelled observation to the
  /// trainer (0 = never): this is what drives hot swaps under load.
  std::size_t observe_every = 8;
  /// Fleet runs: emit live metric deltas every n-th submission (0 = off;
  /// needs a live sink attached to the fleet).
  std::size_t live_every = 0;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument naming the first bad field.
  void validate() const;
};

struct LoadOutcome {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  /// Virtual seconds (deterministic run) or real seconds (threaded run)
  /// from first submission to last completion.
  double duration_s = 0.0;
  double throughput_rps = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_mean_us = 0.0;
  double latency_max_us = 0.0;
};

class LoadDriver {
 public:
  explicit LoadDriver(DriverRequest request);

  /// Start the target (idempotent) and drive it. A synchronous target
  /// (worker_threads == 0, own ManualClock) gets the deterministic open
  /// loop: virtual latency measures the batching policy — the queueing
  /// delay between arrival and the batch that served it. A threaded
  /// target runs either mode in real time. Request i is submitted under
  /// key i. In the open loop, fleet drain steps fire before the
  /// submission of their drain_at/readd_at indices (in real time,
  /// genuinely under load) and live deltas stream every live_every
  /// submissions.
  LoadOutcome run(PredictionService& service);
  LoadOutcome run(PredictionFleet& fleet);

  const DriverRequest& request() const { return request_; }

  /// Synthetic ground truth: a fixed smooth function of the features,
  /// so the model actually converges on something under online updates.
  /// Public so `gsight serve-bench` can warm the model on the same
  /// function the driver labels with.
  static double label_of(const std::vector<double>& features);

 private:
  DriverRequest request_;
};

}  // namespace gsight::serve

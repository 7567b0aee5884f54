#include "serve/load_driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/contracts.hpp"
#include "core/lock.hpp"
#include "stats/seed_stream.hpp"
#include "stats/summary.hpp"

namespace gsight::serve {

namespace {

constexpr double kNsPerSecond = 1e9;
constexpr double kNsPerMicro = 1e3;

std::vector<double> make_features(std::size_t dim, stats::Rng& rng) {
  std::vector<double> x(dim);
  for (auto& v : x) v = rng.uniform();
  return x;
}

LoadOutcome finalise(std::vector<double>& latencies_us, std::size_t submitted,
                     std::size_t shed, double duration_s) {
  LoadOutcome out;
  out.submitted = submitted;
  out.shed = shed;
  out.completed = latencies_us.size();
  out.duration_s = duration_s;
  if (duration_s > 0.0) {
    out.throughput_rps = static_cast<double>(out.completed) / duration_s;
  }
  if (!latencies_us.empty()) {
    out.latency_p50_us = stats::percentile_inplace(latencies_us, 50.0);
    out.latency_p95_us = stats::percentile_inplace(latencies_us, 95.0);
    out.latency_p99_us = stats::percentile_inplace(latencies_us, 99.0);
    out.latency_max_us =
        *std::max_element(latencies_us.begin(), latencies_us.end());
    out.latency_mean_us = stats::mean(latencies_us);
  }
  return out;
}

/// A PredictionService presented as a fleet of one — replica 0, an empty
/// drain schedule, no live sink — so each regime below is written once,
/// against the PredictionFleet interface, and drives both targets.
class ServiceAsFleet {
 public:
  explicit ServiceAsFleet(PredictionService& service) : service_(service) {
    request_.replicas = 1;
    request_.service = service.config();
  }

  const FleetRequest& request() const { return request_; }
  void start() { service_.start(); }
  ManualClock* manual_clock() { return service_.manual_clock(); }
  PredictionService& replica(std::size_t) { return service_; }
  std::optional<std::size_t> submit(std::uint64_t, std::vector<double> x,
                                    PredictionService::Callback done) {
    if (!service_.submit(std::move(x), std::move(done))) return std::nullopt;
    return 0;
  }
  bool observe(std::vector<double> x, double label) {
    return service_.observe(std::move(x), label);
  }
  std::size_t poll_replica(std::size_t) { return service_.poll(); }
  bool train_now() { return service_.train_now(); }
  // The drain schedule is empty and there is no live sink.
  void drain(std::size_t) {}
  void readd(std::size_t) {}
  void emit_live_metrics() {}

 private:
  PredictionService& service_;
  FleetRequest request_;
};

/// Fire the drain-schedule steps keyed to request index i (before its
/// submission).
template <typename Fleet>
void run_drain_steps(Fleet& fleet, std::size_t i) {
  for (const auto& step : fleet.request().drains) {
    if (step.drain_at == i) fleet.drain(step.replica);
    if (step.readd_at == i && step.readd_at != 0) fleet.readd(step.replica);
  }
}

/// Every observe_every-th request also feeds a labelled observation —
/// the same vector as the request, so prediction and ground truth pair
/// up.
template <typename Fleet>
void observe_if_due(const DriverRequest& req, Fleet& fleet, std::size_t i,
                    const std::vector<double>& x) {
  if (req.observe_every > 0 && i % req.observe_every == 0) {
    fleet.observe(x, LoadDriver::label_of(x));
  }
}

/// Deterministic open loop on the fleet's shared ManualClock. Per-replica
/// batch deadlines fire in global virtual-time order (earliest deadline
/// first, ties to the lowest replica id).
template <typename Fleet>
LoadOutcome run_virtual(const DriverRequest& req, Fleet& fleet) {
  GSIGHT_ASSERT(req.mode == DriverRequest::Mode::kOpenLoop,
                "synchronous runs are open-loop (closed-loop latency "
                "needs a real clock)");
  ManualClock* clock = fleet.manual_clock();
  GSIGHT_ASSERT(clock != nullptr,
                "synchronous runs need the target's own ManualClock");

  const ServiceConfig& sc = fleet.request().service;
  const std::size_t dim = sc.feature_dim;
  const auto linger_ns = static_cast<std::uint64_t>(sc.batch_linger.count());
  const std::size_t max_batch = sc.max_batch;
  const std::size_t replicas = fleet.request().replicas;
  stats::Rng rng(stats::SeedStream::derive(req.seed, 0));

  std::vector<double> latencies_us;
  latencies_us.reserve(req.requests);
  auto on_done = [&latencies_us](const PredictResult& r) {
    latencies_us.push_back(static_cast<double>(r.latency_ns) / kNsPerMicro);
  };

  // Per-replica FIFO mirrors of queued submit times: each replica serves
  // in submission order, so pending[r].front() is its oldest arrival —
  // which is what its batch-forming deadline is measured from.
  std::vector<std::deque<std::uint64_t>> pending(replicas);
  auto serve_replica = [&](std::size_t r) {
    const std::size_t served = fleet.poll_replica(r);
    for (std::size_t i = 0; i < served; ++i) pending[r].pop_front();
    return served;
  };
  // Earliest pending batch deadline across replicas (ties to the lowest
  // replica id — fully deterministic firing order).
  auto next_deadline = [&]() -> std::optional<std::pair<std::uint64_t, std::size_t>> {
    std::optional<std::pair<std::uint64_t, std::size_t>> best;
    for (std::size_t r = 0; r < replicas; ++r) {
      if (pending[r].empty()) continue;
      const std::uint64_t due = pending[r].front() + linger_ns;
      if (!best || due < best->first) best = {{due, r}};
    }
    return best;
  };
  // Fire every batch deadline at or before `until`, in global order.
  auto fire_deadlines = [&](std::uint64_t until) {
    for (;;) {
      const auto due = next_deadline();
      if (!due || due->first > until) return;
      clock->set_ns(due->first);
      if (serve_replica(due->second) == 0) return;
    }
  };

  std::size_t shed = 0;
  double arrival_s = 0.0;
  std::uint64_t first_ns = 0;
  for (std::size_t i = 0; i < req.requests; ++i) {
    arrival_s += rng.exponential(req.rate_hz);
    const auto arrival_ns =
        static_cast<std::uint64_t>(arrival_s * kNsPerSecond);
    if (i == 0) first_ns = arrival_ns;
    fire_deadlines(arrival_ns);
    clock->set_ns(arrival_ns);
    // A drained replica keeps its pending mirror — its queue still
    // empties through fire_deadlines (zero lost).
    run_drain_steps(fleet, i);
    auto features = make_features(dim, rng);
    observe_if_due(req, fleet, i, features);
    const auto routed = fleet.submit(i, std::move(features), on_done);
    if (routed) {
      pending[*routed].push_back(arrival_ns);
      // A full batch is served immediately — no reason to linger.
      while (pending[*routed].size() >= max_batch) {
        if (serve_replica(*routed) == 0) break;
      }
    } else {
      ++shed;
    }
    if (req.live_every > 0 && i % req.live_every == 0) {
      fleet.emit_live_metrics();
    }
  }
  // Tail: serve remaining requests at their deadlines.
  fire_deadlines(std::numeric_limits<std::uint64_t>::max());
  fleet.train_now();  // fold any leftover observations
  if (req.live_every > 0) fleet.emit_live_metrics();

  const double duration_s =
      static_cast<double>(clock->now_ns() - first_ns) / kNsPerSecond;
  return finalise(latencies_us, req.requests, shed, duration_s);
}

/// Real-time drive of a threaded fleet, either mode.
template <typename Fleet>
LoadOutcome run_real_time(const DriverRequest& req, Fleet& fleet) {
  const std::size_t dim = fleet.request().service.feature_dim;
  const Clock* clock = fleet.replica(0).clock();

  core::Mutex lat_mutex;
  std::vector<double> latencies_us;
  latencies_us.reserve(req.requests);
  std::atomic<std::size_t> completed{0};
  auto on_done = [&](const PredictResult& r) {
    {
      core::MutexLock lock(lat_mutex);
      latencies_us.push_back(static_cast<double>(r.latency_ns) / kNsPerMicro);
    }
    completed.fetch_add(1, std::memory_order_release);
  };

  const std::uint64_t start_ns = clock->now_ns();
  std::size_t shed = 0;

  if (req.mode == DriverRequest::Mode::kOpenLoop) {
    stats::Rng rng(stats::SeedStream::derive(req.seed, 0));
    std::size_t accepted = 0;
    double arrival_s = 0.0;
    for (std::size_t i = 0; i < req.requests; ++i) {
      arrival_s += rng.exponential(req.rate_hz);
      const auto due_ns =
          start_ns + static_cast<std::uint64_t>(arrival_s * kNsPerSecond);
      // Open loop: hold the schedule regardless of completions.
      for (;;) {
        const std::uint64_t now = clock->now_ns();
        if (now >= due_ns) break;
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::uint64_t>(due_ns - now, 200'000)));
      }
      // Drain/re-add genuinely under load: the drain blocks inline until
      // the replica's in-flight requests finish while peers keep serving.
      run_drain_steps(fleet, i);
      auto features = make_features(dim, rng);
      observe_if_due(req, fleet, i, features);
      if (fleet.submit(i, std::move(features), on_done)) {
        ++accepted;
      } else {
        ++shed;
      }
      if (req.live_every > 0 && i % req.live_every == 0) {
        fleet.emit_live_metrics();
      }
    }
    // Wait for in-flight work to complete (bounded: the queues are
    // bounded and workers drain them, so this terminates).
    while (completed.load(std::memory_order_acquire) < accepted) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> shed_count{0};
    std::vector<std::thread> clients;
    clients.reserve(req.clients);
    for (std::size_t c = 0; c < req.clients; ++c) {
      clients.emplace_back([&, c] {
        stats::Rng rng(stats::SeedStream::derive(req.seed, c + 1));
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= req.requests) return;
          auto features = make_features(dim, rng);
          observe_if_due(req, fleet, i, features);
          // Each client waits on a promise the serving replica fulfils.
          auto state = std::make_shared<std::promise<PredictResult>>();
          auto result = state->get_future();
          if (!fleet.submit(
                  i, std::move(features),
                  [state](const PredictResult& r) { state->set_value(r); })) {
            shed_count.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          on_done(result.get());
        }
      });
    }
    for (auto& t : clients) t.join();
    shed = shed_count.load();
  }

  const double duration_s =
      static_cast<double>(clock->now_ns() - start_ns) / kNsPerSecond;
  core::MutexLock lock(lat_mutex);
  return finalise(latencies_us, req.requests, shed, duration_s);
}

template <typename Fleet>
LoadOutcome drive(const DriverRequest& req, Fleet& fleet) {
  fleet.start();
  return fleet.request().service.worker_threads == 0
             ? run_virtual(req, fleet)
             : run_real_time(req, fleet);
}

}  // namespace

void DriverRequest::validate() const {
  if (requests == 0) {
    throw std::invalid_argument("DriverRequest: requests must be non-zero");
  }
  if (!(rate_hz > 0.0)) {
    throw std::invalid_argument("DriverRequest: rate_hz must be positive");
  }
  if (clients == 0) {
    throw std::invalid_argument("DriverRequest: clients must be non-zero");
  }
}

LoadDriver::LoadDriver(DriverRequest request) : request_(request) {
  request_.validate();
}

double LoadDriver::label_of(const std::vector<double>& features) {
  // Smooth, deterministic pseudo-QoS: weighted mean plus a mild
  // nonlinearity so the forest has structure to learn.
  double acc = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    acc += features[i] * (1.0 + static_cast<double>(i % 7) * 0.25);
  }
  const double mean = acc / static_cast<double>(features.size());
  return mean + 0.1 * mean * mean;
}

LoadOutcome LoadDriver::run(PredictionService& service) {
  ServiceAsFleet fleet(service);
  return drive(request_, fleet);
}

LoadOutcome LoadDriver::run(PredictionFleet& fleet) {
  return drive(request_, fleet);
}

}  // namespace gsight::serve

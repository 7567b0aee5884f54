// Platform — the serverless platform facade: engine + cluster + gateway +
// recorder + deployed apps + load drivers. This is the simulated OpenFaaS:
// requests enter through the shared gateway, route round-robin across a
// function's replicas, execute under interference, and report QoS.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "sim/cluster_spec.hpp"
#include "sim/gateway.hpp"
#include "sim/recorder.hpp"
#include "sim/request.hpp"
#include "workloads/app.hpp"

namespace gsight::sim {

/// Cluster shape, seed and trace sink come from the embedded ClusterSpec
/// (validated in the Platform constructor); the fields below are the
/// platform-only knobs.
struct PlatformConfig : ClusterSpec {
  GatewayConfig gateway;
  InstanceConfig instance;
  double metric_window_s = 1.0;
};

/// Per-app QoS bookkeeping.
struct AppStats {
  /// (completion time, end-to-end latency) of every successful request.
  std::vector<std::pair<double, double>> e2e;
  std::uint64_t failed = 0;
  /// (completion time, local latency) per function.
  std::vector<std::vector<std::pair<double, double>>> fn_latency;
  /// Mean-IPC accumulator per function (invocation-weighted).
  std::vector<stats::Running> fn_ipc;
  /// Completed job JCTs (SC apps): (completion time, jct).
  std::vector<std::pair<double, double>> jct;
  /// Requests retracted via cancel_request before completing.
  std::uint64_t cancelled = 0;
  /// Clone invocations submitted / retracted by cancel-on-first-complete
  /// (zero unless the gateway's CloneConfig::factor > 1).
  std::uint64_t clones_dispatched = 0;
  std::uint64_t clones_cancelled = 0;

  std::vector<double> e2e_values() const;
  std::vector<double> fn_latency_values(std::size_t fn) const;
  /// e2e latencies completing within [t0, t1).
  std::vector<double> e2e_values_between(double t0, double t1) const;
};

class Platform final : public Router, public RequestSink {
 public:
  explicit Platform(PlatformConfig config = {});
  ~Platform() override;

  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  Cluster& cluster() { return *cluster_; }
  Gateway& gateway() { return *gateway_; }
  Recorder& recorder() { return recorder_; }
  const PlatformConfig& config() const { return config_; }

  // --- Observability ------------------------------------------------------
  /// The platform's span tracer; shared by the gateway, servers, scaler
  /// and request contexts. Swap sinks at any time (null disables).
  obs::Tracer& tracer() { return tracer_; }
  void set_trace_sink(obs::TraceSink* sink) { tracer_.set_sink(sink); }
  /// Live metrics registry. Counters/histograms update as the sim runs;
  /// gauges are snapshotted by refresh_metrics().
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Update the gauge metrics (instances, density, utilisation, engine
  /// events, per-app request totals) from current platform state.
  void refresh_metrics();

  // --- Deployment --------------------------------------------------------
  /// Deploy an app with one replica of function i on fn_to_server[i].
  /// Returns the app handle used by every other call.
  std::size_t deploy(const wl::App& app,
                     const std::vector<std::size_t>& fn_to_server);
  std::size_t app_count() const { return apps_.size(); }
  const wl::App& app(std::size_t id) const { return apps_.at(id)->app; }
  /// Current replicas of one function.
  std::vector<Instance*> replicas(std::size_t app, std::size_t fn) const;
  Instance* add_replica(std::size_t app, std::size_t fn,
                        std::size_t server_idx);
  /// Retire one replica (prefers the most recently added). The instance is
  /// destroyed as soon as it drains. Keeps at least `min_keep` replicas.
  bool remove_replica(std::size_t app, std::size_t fn,
                      std::size_t min_keep = 1);

  // --- Load --------------------------------------------------------------
  /// Open-loop Poisson arrivals at `qps` toward the app's root function,
  /// starting now. qps <= 0 stops the loop.
  void set_open_loop(std::size_t app, double qps);
  /// Time-varying open loop: `rate(t)` is sampled at each arrival.
  void set_rate_function(std::size_t app, std::function<double(double)> rate,
                         double peak_rate);
  /// Issue a single request now. `on_done` (optional) fires with the
  /// end-to-end latency and success flag, after stats are recorded.
  void issue_request(std::size_t app,
                     std::function<void(double, bool)> on_done = {});
  /// Like issue_request, but returns a handle that can retract the
  /// request later (cross-shard clone groups). The handle stays valid —
  /// the platform holds a RequestRef — until the request completes or is
  /// cancelled.
  std::uint64_t issue_tracked_request(
      std::size_t app, std::function<void(double, bool)> on_done = {});
  /// Retract a tracked request: every in-flight invocation is cancelled
  /// at its instance and no completion is recorded (AppStats::cancelled
  /// counts it instead). Returns false when the handle is unknown or the
  /// request already completed — cancellation is idempotent.
  bool cancel_request(std::uint64_t handle);
  /// Run an SC/BG app once through its graph; on_done receives the JCT.
  void submit_job(std::size_t app, std::function<void(double)> on_done = {});
  /// Abort every running execution of the app (models migrating the
  /// workload off its servers — the "local control" of Observation 5)
  /// through Instance::abort_running: the aborted completions never
  /// fire, and each instance moves on to its next queued invocation.
  /// Returns the number aborted.
  std::size_t abort_executions(std::size_t app);

  // --- Execution ---------------------------------------------------------
  void run_until(double t) { engine_.run_until(t); }
  double now() const { return engine_.now(); }

  // --- Introspection ------------------------------------------------------
  const AppStats& stats(std::size_t app) const { return apps_.at(app)->stats; }
  /// Arrivals to the app's root function since the last call (autoscaler
  /// rate signal).
  std::uint64_t drain_arrival_count(std::size_t app);
  /// Invocations currently queued (or running) across the replicas of one
  /// function — the autoscaler's backlog signal.
  std::size_t queued_invocations(std::size_t app, std::size_t fn) const;
  std::size_t total_instances() const { return cluster_->total_instances(); }
  /// Instances per core across the cluster ("function density", Fig. 11).
  double function_density() const;
  /// The context pool behind issue_request/submit_job; allocated() is the
  /// high-water mark of concurrent in-flight requests (the pool ctest
  /// asserts reuse by checking it stays far below total requests issued).
  const RequestPool& request_pool() const { return request_pool_; }

  // Router:
  Instance* route(std::size_t app, std::size_t fn) override;
  Instance* route_clone(std::size_t app, std::size_t fn,
                        const Server* const* exclude, std::size_t n) override;
  double clone_jitter(std::size_t app, std::size_t fn) override;

 private:
  // RequestSink (called by pooled RequestContexts; private because only
  // the contexts — via the base interface — should report through it):
  void on_request_done(std::size_t app, RequestKind kind, double latency_s,
                       bool ok) override;
  void on_fn_done(std::size_t app, std::size_t fn,
                  const InvocationResult& result) override;
  void on_request_cancelled(std::size_t app, RequestKind kind) override;
  void on_clone_accounting(std::size_t app, std::uint32_t dispatched,
                           std::uint32_t cancelled) override;
  struct DeployedApp {
    wl::App app;
    std::vector<std::vector<Instance*>> replicas;  // per fn
    std::vector<std::size_t> rr;                   // round-robin cursors
    AppStats stats;
    std::uint64_t load_generation = 0;  // bumping cancels the open loop
    std::uint64_t arrivals_since_drain = 0;
  };

  void schedule_next_arrival(std::size_t app, double rate_cap,
                             std::function<double(double)> rate,
                             std::uint64_t generation);
  void gc_retired();

  PlatformConfig config_;
  // Declared before the engine/cluster/gateway on purpose: pending engine
  // events and queued gateway forwards hold RequestRefs, and dropping the
  // last ref returns a context to this pool — so the pool must be
  // destroyed after every holder of refs (members destroy in reverse
  // declaration order).
  RequestPool request_pool_;
  Engine engine_;
  InterferenceModel model_;
  Recorder recorder_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  std::uint64_t next_request_id_ = 1;
  // Tracked (cancellable) requests by handle. Holds RequestRefs, so it
  // must be destroyed before request_pool_ (it is: reverse declaration
  // order). Ordered map: erase order feeds nothing, but iteration during
  // teardown must be deterministic.
  std::map<std::uint64_t, RequestRef> tracked_;
  // Instances (owned by the cluster) hold pointers into the deployed apps'
  // FunctionSpecs, so `apps_` must outlive `cluster_`: members below are
  // destroyed in reverse declaration order.
  std::vector<std::unique_ptr<DeployedApp>> apps_;
  std::vector<Instance*> retired_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Gateway> gateway_;
  stats::Rng rng_;
  /// Dedicated stream for synchronized-clone jitter draws so enabling
  /// cloning never perturbs the load RNG (rng_) sequence.
  stats::Rng clone_rng_;
};

}  // namespace gsight::sim

// FunctionInstance — one container replica of a function on a server.
// Serverless semantics: concurrency 1, FIFO queue, cold start on the first
// invocation after creation or after an idle expiry (§5.2 treats startup
// as an ordinary leading phase of the execution, which is exactly how it
// is modelled here).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/server.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace gsight::sim {

struct InvocationResult {
  double queue_wait_s = 0.0;
  double exec_s = 0.0;       ///< busy time including any cold start
  double local_latency_s = 0.0;  ///< queue_wait + exec
  double mean_ipc = 0.0;
  bool cold = false;
};

struct InstanceConfig {
  /// Idle seconds after which the instance goes cold again (Azure-style
  /// keep-alive). Infinite disables re-cooling.
  double idle_expiry_s = 1e18;
  /// Demands of the synthetic startup phase, scaled by the spec's
  /// cold_start_s. Startup is CPU+disk heavy (image pull, runtime boot).
  double startup_cores = 1.0;
  double startup_disk_mbps = 150.0;
};

class Instance {
 public:
  using DoneFn = std::function<void(const InvocationResult&)>;

  /// `backlog` is the owner's running count of queued plus running
  /// invocations (Cluster::total_backlog); the instance adjusts it on
  /// every transition that changes backlog().
  Instance(std::uint64_t id, std::size_t app, std::size_t fn,
           const wl::FunctionSpec* spec, Server* server, Engine* engine,
           InstanceConfig config, std::uint64_t seed, std::size_t* backlog);
  ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  std::uint64_t id() const { return id_; }
  std::size_t app_index() const { return app_; }
  std::size_t fn_index() const { return fn_; }
  const wl::FunctionSpec& spec() const { return *spec_; }
  Server& server() const { return *server_; }

  /// Enqueue one invocation; `done` fires at completion. Returns a
  /// cancellation ticket (see cancel()). When `jitter_override` > 0 the
  /// invocation runs with that duration multiplier instead of drawing
  /// one from the instance Rng — the gateway's synchronized-service
  /// cloning mode gives every sibling clone the same draw.
  std::uint64_t submit(DoneFn done, double jitter_override = -1.0);

  /// Retract a submitted invocation. A queued invocation is dropped
  /// (its DoneFn destroyed, releasing any captured refs); a running one
  /// has its server execution aborted and the next queued invocation
  /// starts. The DoneFn never fires and no latency/IPC sample is
  /// recorded. Returns false when the ticket already completed (or was
  /// already cancelled) — cancellation is idempotent.
  bool cancel(std::uint64_t ticket);
  /// Abort the running invocation (the workload migrates off the
  /// server): its DoneFn never fires and the next queued invocation
  /// starts. Returns false when nothing is running.
  bool abort_running();

  std::size_t queue_depth() const { return queue_.size(); }
  bool busy() const { return busy_; }
  /// Invocations queued or running here.
  std::size_t backlog() const { return queue_.size() + (busy_ ? 1 : 0); }
  /// True once the instance has served its first invocation (and has
  /// not re-cooled past the idle expiry).
  bool warm() const { return warm_; }
  bool draining() const { return retiring_; }
  /// Mark the instance as retiring: the router stops sending it work and
  /// the owner (Platform's gc) destroys it once `idle()` — an instance
  /// cannot safely self-destruct mid-execution.
  void retire() { retiring_ = true; }
  bool idle() const { return !busy_ && queue_.empty(); }

  std::uint64_t invocations() const { return invocations_; }
  std::uint64_t cold_starts() const { return cold_starts_; }
  std::uint64_t cancellations() const { return cancellations_; }
  const stats::Reservoir& local_latencies() const { return latencies_; }
  const stats::Running& ipc_stats() const { return ipc_stats_; }

 private:
  struct Pending {
    SimTime enqueued = 0.0;
    DoneFn done;
    std::uint64_t ticket = 0;
    double jitter_override = -1.0;
  };

  void start_next();
  /// The running invocation left (completed or aborted): clear it and
  /// take it off the backlog count.
  void finish_running();
  std::vector<wl::Phase> materialize_phases(bool cold, double jitter_override);

  std::uint64_t id_;
  std::size_t app_;
  std::size_t fn_;
  const wl::FunctionSpec* spec_;
  Server* server_;
  Engine* engine_;
  InstanceConfig config_;
  stats::Rng rng_;
  std::size_t* backlog_;

  std::deque<Pending> queue_;
  bool busy_ = false;
  bool warm_ = false;
  bool retiring_ = false;
  SimTime last_finish_ = 0.0;
  ExecId current_exec_ = 0;
  std::uint64_t current_ticket_ = 0;  ///< 0 = nothing running
  std::uint64_t next_ticket_ = 1;

  std::uint64_t invocations_ = 0;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t cancellations_ = 0;
  stats::Reservoir latencies_{4096};
  stats::Running ipc_stats_;
};

}  // namespace gsight::sim

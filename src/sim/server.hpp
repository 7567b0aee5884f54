// Server — one physical node executing function phases under the
// interference model. Executions progress at rates that depend on the
// whole colocation set; any membership or phase change triggers a
// recompute that (a) banks elapsed progress at the old rates, (b)
// re-evaluates rates, and (c) reschedules completion events. Stale events
// are invalidated by per-execution generation counters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/interference.hpp"
#include "sim/resources.hpp"
#include "workloads/function_spec.hpp"

namespace gsight::sim {

using ExecId = std::uint64_t;

/// Measured outcome of one completed execution.
struct ExecResult {
  double duration_s = 0.0;     ///< wall-clock busy time
  double solo_s = 0.0;         ///< what the same work took solo
  double mean_ipc = 0.0;       ///< time-weighted effective IPC
  double mean_slowdown = 1.0;  ///< duration / solo
};

/// Hook for exact, time-weighted metric accounting: called for every
/// execution each time progress is banked, with the observation that was
/// in force during [now-dt, now].
class ExecSliceSink {
 public:
  virtual ~ExecSliceSink() = default;
  virtual void on_exec_slice(void* owner, SimTime end, double dt,
                             const ExecObservation& obs,
                             const wl::Phase& phase) = 0;
  /// An execution was retracted (clone cancellation, migration) before
  /// completing; its final partial slice is not banked. Default no-op.
  virtual void on_exec_aborted(void* owner, SimTime when) {
    (void)owner;
    (void)when;
  }
};

class Server {
 public:
  Server(std::size_t id, ServerConfig config, Engine* engine,
         const InterferenceModel* model);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::size_t id() const { return id_; }
  const ServerConfig& config() const { return config_; }

  using CompletionFn = std::function<void(const ExecResult&)>;

  /// Start executing `phases` (already jittered / startup-prefixed).
  /// `owner` is an opaque tag passed to the slice sink (the Instance).
  ExecId begin_execution(std::vector<wl::Phase> phases, CompletionFn on_complete,
                         void* owner = nullptr);
  /// Abort a running execution (migration / scale-down); no completion
  /// callback fires. Returns false if the id is not active.
  bool abort_execution(ExecId id);

  std::size_t active_count() const { return execs_.size(); }
  /// Observation currently in force for an active execution (nullptr when
  /// the id is not active).
  const ExecObservation* observation(ExecId id) const;
  /// Sum of demands of the currently running phases.
  DemandTotals active_demand() const;

  /// Residency accounting (idle instances still hold memory). Memory is
  /// deliberately oversubscribable — serverless platforms over-commit —
  /// but the ledger contracts still guarantee it never goes negative.
  void add_resident(double mem_gb);
  void remove_resident(double mem_gb);
  double resident_mem_gb() const { return resident_mem_.used(); }
  std::size_t resident_count() const { return resident_count_; }

  /// Fraction of cores granted to running executions right now (0..1+).
  double cpu_utilization() const;

  void set_slice_sink(ExecSliceSink* sink) { sink_ = sink; }
  /// Observability: when the tracer is enabled, every completed execution
  /// emits an "exec" span on this server's trace lane.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Exec {
    ExecId id = 0;
    std::vector<wl::Phase> phases;
    std::size_t phase_idx = 0;
    double remaining = 0.0;  ///< solo-seconds left in the current phase
    double rate = 1.0;
    SimTime last_update = 0.0;
    std::uint64_t gen = 0;
    CompletionFn on_complete;
    void* owner = nullptr;
    ExecObservation obs;
    // Accumulators for ExecResult.
    SimTime started = 0.0;
    double ipc_integral = 0.0;
    double busy_integral = 0.0;
  };

  /// Bank progress at old rates, re-evaluate the colocation, reschedule.
  void recompute();
  void schedule_completion(Exec& e);
  void on_phase_event(ExecId id, std::uint64_t gen);

  std::size_t id_;
  ServerConfig config_;
  Engine* engine_;
  const InterferenceModel* model_;
  ExecSliceSink* sink_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  // Ordered by ExecId (= start order) so every iteration — in particular
  // the colocation vector handed to the interference model in recompute()
  // — is replay-deterministic. An unordered_map here would make rates
  // depend on hash-table layout.
  std::map<ExecId, Exec> execs_;
  ExecId next_id_ = 1;
  ResourceLedger resident_mem_;
  std::size_t resident_count_ = 0;
};

}  // namespace gsight::sim

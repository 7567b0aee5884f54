// gsight-analyze: hot-path
#include "sim/server.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "obs/json.hpp"

namespace gsight::sim {

Server::Server(std::size_t id, ServerConfig config, Engine* engine,
               const InterferenceModel* model)
    : id_(id),
      config_(config),
      engine_(engine),
      model_(model),
      resident_mem_(config.mem_gb, ResourceLedger::Policy::kOversubscribe) {
  GSIGHT_ASSERT(engine_ != nullptr && model_ != nullptr);
}

void Server::add_resident(double mem_gb) {
  resident_mem_.acquire(mem_gb);
  ++resident_count_;
}

void Server::remove_resident(double mem_gb) {
  GSIGHT_ASSERT(resident_count_ > 0,
                "remove_resident with no resident instances");
  resident_mem_.release(mem_gb);
  --resident_count_;
}

ExecId Server::begin_execution(std::vector<wl::Phase> phases,
                               CompletionFn on_complete, void* owner) {
  GSIGHT_ASSERT(!phases.empty(), "execution needs at least one phase");
  Exec e;
  e.id = next_id_++;
  e.phases = std::move(phases);
  e.remaining = e.phases[0].solo_duration_s;
  e.last_update = engine_->now();
  e.started = engine_->now();
  e.on_complete = std::move(on_complete);
  e.owner = owner;
  const ExecId id = e.id;
  execs_.emplace(id, std::move(e));
  recompute();
  return id;
}

bool Server::abort_execution(ExecId id) {
  const auto it = execs_.find(id);
  if (it == execs_.end()) return false;
  if (sink_ != nullptr) {
    sink_->on_exec_aborted(it->second.owner, engine_->now());
  }
  execs_.erase(it);
  recompute();
  return true;
}

const ExecObservation* Server::observation(ExecId id) const {
  const auto it = execs_.find(id);
  return it == execs_.end() ? nullptr : &it->second.obs;
}

DemandTotals Server::active_demand() const {
  DemandTotals totals;
  for (const auto& [id, e] : execs_) {
    totals.add(e.phases[e.phase_idx].demand);
  }
  return totals;
}

double Server::cpu_utilization() const {
  double granted = 0.0;
  for (const auto& [id, e] : execs_) {
    granted += e.phases[e.phase_idx].demand.cores * e.obs.cpu_share;
  }
  return granted / config_.cores;
}

void Server::recompute() {
  const SimTime now = engine_->now();
  // 1. Bank progress under the rates that were in force.
  for (auto& [id, e] : execs_) {
    const double dt = now - e.last_update;
    GSIGHT_INVARIANT(dt >= 0.0, "execution progressed backwards in time");
    if (dt > 0.0) {
      e.remaining = std::max(0.0, e.remaining - e.rate * dt);
      e.ipc_integral += e.obs.ipc * dt;
      e.busy_integral += dt;
      if (sink_ != nullptr) {
        sink_->on_exec_slice(e.owner, now, dt, e.obs, e.phases[e.phase_idx]);
      }
    }
    e.last_update = now;
  }
  // 2. Re-evaluate the colocation.
  phases_.clear();
  order_.clear();
  for (auto& [id, e] : execs_) {
    phases_.push_back(&e.phases[e.phase_idx]);
    order_.push_back(&e);
  }
  model_->evaluate(config_, phases_, observations_);
  // 3. Apply new rates. Under processor sharing each execution is
  // additionally capped to an equal share of the cores: the interference
  // model splits CPU time proportionally to demand, so the egalitarian
  // discipline is a further fair-share factor on executions demanding
  // more than cores/n.
  const double fair_cores = (config_.discipline ==
                                 ServiceDiscipline::kProcessorSharing &&
                             !order_.empty())
                                ? config_.cores / static_cast<double>(
                                                      order_.size())
                                : 0.0;
  // 4. Schedule one event for the phase that ends first; the strict `<`
  // in ExecId order sends ties to the earliest-started execution
  // (DESIGN.md §5 shows this keeps every event's replay order).
  ++gen_;
  const Exec* first = nullptr;
  SimTime first_at = 0.0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    Exec& e = *order_[i];
    e.obs = observations_[i];
    e.rate = std::max(e.obs.rate, 1e-9);
    if (fair_cores > 0.0) {
      const double want = e.phases[e.phase_idx].demand.cores;
      if (want > fair_cores) e.rate *= fair_cores / want;
      e.rate = std::max(e.rate, 1e-9);
    }
    GSIGHT_INVARIANT(std::isfinite(e.rate) && e.rate > 0.0,
                     "interference model produced a bad progress rate");
    GSIGHT_INVARIANT(e.remaining >= 0.0, "negative remaining work");
    // The same sum Engine::after would form from the delay.
    const SimTime at = now + e.remaining / e.rate;
    if (first == nullptr || at < first_at) {
      first = &e;
      first_at = at;
    }
  }
  if (first == nullptr) return;
  next_done_ = first->id;
  const std::uint64_t gen = gen_;
  engine_->at(first_at, [this, gen] { on_phase_event(gen); });
}

void Server::on_phase_event(std::uint64_t gen) {
  if (gen != gen_) return;  // a later recompute superseded this event
  // Every erase recomputes, so the live event's execution still exists.
  const auto it = execs_.find(next_done_);
  GSIGHT_INVARIANT(it != execs_.end(),
                   "live completion event for an inactive execution");
  Exec& e = it->second;
  const SimTime now = engine_->now();
  // Bank the final slice of this phase.
  const double dt = now - e.last_update;
  if (dt > 0.0) {
    e.ipc_integral += e.obs.ipc * dt;
    e.busy_integral += dt;
    if (sink_ != nullptr) {
      sink_->on_exec_slice(e.owner, now, dt, e.obs, e.phases[e.phase_idx]);
    }
  }
  e.last_update = now;
  e.remaining = 0.0;

  if (e.phase_idx + 1 < e.phases.size()) {
    ++e.phase_idx;
    e.remaining = e.phases[e.phase_idx].solo_duration_s;
    recompute();
    return;
  }
  // Execution complete: gather the result, remove, then notify.
  ExecResult result;
  result.duration_s = now - e.started;
  for (const auto& p : e.phases) result.solo_s += p.solo_duration_s;
  result.mean_ipc =
      e.busy_integral > 0.0 ? e.ipc_integral / e.busy_integral : 0.0;
  result.mean_slowdown =
      result.solo_s > 0.0 ? result.duration_s / result.solo_s : 1.0;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->complete(
        e.started, result.duration_s, "server.exec", "server",
        obs::Lanes::kPlatform, /*tid=*/100 + id_,
        {{"slowdown", obs::json_number(result.mean_slowdown)},
         {"ipc", obs::json_number(result.mean_ipc)}});
  }
  CompletionFn on_complete = std::move(e.on_complete);
  execs_.erase(it);
  recompute();
  if (on_complete) on_complete(result);
}

}  // namespace gsight::sim

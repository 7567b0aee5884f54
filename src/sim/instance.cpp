#include "sim/instance.hpp"

#include <memory>

#include "core/contracts.hpp"
#include "stats/seed_stream.hpp"

namespace gsight::sim {

namespace {
/// Named sub-stream of the instance's seed (DESIGN.md §9): the latency
/// reservoir must sample independently of the jitter Rng.
constexpr std::uint64_t kLatencyReservoirStream = 1;
}  // namespace

Instance::Instance(std::uint64_t id, std::size_t app, std::size_t fn,
                   const wl::FunctionSpec* spec, Server* server, Engine* engine,
                   InstanceConfig config, std::uint64_t seed,
                   std::size_t* backlog)
    : id_(id),
      app_(app),
      fn_(fn),
      spec_(spec),
      server_(server),
      engine_(engine),
      config_(config),
      rng_(seed),
      backlog_(backlog),
      latencies_(4096,
                 stats::SeedStream::derive(seed, kLatencyReservoirStream)) {
  server_->add_resident(spec_->mem_alloc_gb);
}

Instance::~Instance() { server_->remove_resident(spec_->mem_alloc_gb); }

std::vector<wl::Phase> Instance::materialize_phases(bool cold,
                                                    double jitter_override) {
  std::vector<wl::Phase> phases;
  phases.reserve(spec_->phases.size() + 1);
  if (cold && spec_->cold_start_s > 0.0) {
    wl::Phase startup;
    startup.name = "cold-start";
    startup.solo_duration_s = spec_->cold_start_s;
    startup.demand.cores = config_.startup_cores;
    startup.demand.disk_mbps = config_.startup_disk_mbps;
    startup.demand.llc_mb = 1.0;
    startup.demand.membw_gbps = 1.0;
    startup.demand.mem_gb = spec_->mem_alloc_gb;
    startup.demand.frac_cpu = 0.5;
    startup.demand.frac_disk = 0.4;
    startup.uarch.base_ipc = 1.0;
    phases.push_back(std::move(startup));
  }
  const double jitter =
      jitter_override > 0.0
          ? jitter_override
          : (spec_->jitter_sigma > 0.0
                 ? rng_.lognormal_median(1.0, spec_->jitter_sigma)
                 : 1.0);
  for (const auto& p : spec_->phases) {
    wl::Phase copy = p;
    copy.solo_duration_s *= jitter;
    copy.demand.mem_gb = std::max(copy.demand.mem_gb, spec_->mem_alloc_gb);
    phases.push_back(std::move(copy));
  }
  return phases;
}

std::uint64_t Instance::submit(DoneFn done, double jitter_override) {
  const std::uint64_t ticket = next_ticket_++;
  queue_.push_back({engine_->now(), std::move(done), ticket, jitter_override});
  ++*backlog_;
  if (!busy_) start_next();
  return ticket;
}

bool Instance::cancel(std::uint64_t ticket) {
  if (ticket == 0) return false;
  if (busy_ && ticket == current_ticket_) {
    abort_running();
    ++cancellations_;
    return true;
  }
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->ticket == ticket) {
      queue_.erase(it);  // destroying Pending::done releases captured refs
      --*backlog_;
      ++cancellations_;
      return true;
    }
  }
  return false;
}

bool Instance::abort_running() {
  if (!busy_) return false;
  // The server erases the Exec (the completion lambda — and the DoneFn it
  // owns — is destroyed without firing) and recomputes the survivors'
  // rates.
  server_->abort_execution(current_exec_);
  finish_running();
  if (!queue_.empty()) start_next();
  return true;
}

void Instance::finish_running() {
  busy_ = false;
  last_finish_ = engine_->now();
  current_exec_ = 0;
  current_ticket_ = 0;
  --*backlog_;
}

void Instance::start_next() {
  GSIGHT_ASSERT(!busy_ && !queue_.empty(),
                "start_next needs an idle instance with queued work");
  busy_ = true;
  Pending pending = std::move(queue_.front());
  queue_.pop_front();

  const SimTime now = engine_->now();
  const bool cold =
      !warm_ || (now - last_finish_) > config_.idle_expiry_s;
  if (cold) ++cold_starts_;
  warm_ = true;
  ++invocations_;

  const double queue_wait = now - pending.enqueued;
  current_ticket_ = pending.ticket;
  auto done = std::make_shared<DoneFn>(std::move(pending.done));
  current_exec_ = server_->begin_execution(
      materialize_phases(cold, pending.jitter_override),
      [this, queue_wait, cold, done](const ExecResult& r) {
        InvocationResult inv;
        inv.queue_wait_s = queue_wait;
        inv.exec_s = r.duration_s;
        inv.local_latency_s = queue_wait + r.duration_s;
        inv.mean_ipc = r.mean_ipc;
        inv.cold = cold;
        latencies_.add(inv.local_latency_s);
        ipc_stats_.add(r.mean_ipc);
        finish_running();
        if (!queue_.empty()) start_next();
        if (*done) (*done)(inv);
      },
      /*owner=*/this);
}

}  // namespace gsight::sim

#include "sim/cluster.hpp"

#include "core/contracts.hpp"

namespace gsight::sim {

Cluster::Cluster(Engine* engine, const InterferenceModel* model,
                 std::vector<ServerConfig> servers, ExecSliceSink* sink,
                 std::uint64_t seed)
    : engine_(engine), model_(model), sink_(sink), rng_(seed) {
  GSIGHT_ASSERT(!servers.empty(), "cluster needs at least one server");
  servers_.reserve(servers.size());
  for (std::size_t i = 0; i < servers.size(); ++i) {
    servers_.push_back(std::make_unique<Server>(i, servers[i], engine_, model_));
    servers_.back()->set_slice_sink(sink_);
  }
}

Instance* Cluster::create_instance(std::size_t app, std::size_t fn,
                                   const wl::FunctionSpec* spec,
                                   std::size_t server_idx,
                                   InstanceConfig config) {
  GSIGHT_ASSERT(server_idx < servers_.size(), "instance placed off-cluster");
  const std::uint64_t id = next_instance_id_++;
  auto instance = std::make_unique<Instance>(
      id, app, fn, spec, servers_[server_idx].get(), engine_, config,
      rng_.next(), &backlog_);
  Instance* raw = instance.get();
  instances_.emplace(id, std::move(instance));
  ++created_;
  GSIGHT_INVARIANT(created_ - destroyed_ == instances_.size(),
                   "instance accounting drifted");
  return raw;
}

bool Cluster::destroy_instance(Instance* instance) {
  GSIGHT_ASSERT(instance != nullptr, "destroy_instance(nullptr)");
  return destroy_instance(instance->id());
}

bool Cluster::destroy_instance(std::uint64_t id) {
  const auto it = instances_.find(id);
  if (it == instances_.end()) return false;
  if (!it->second->idle()) return false;
  instances_.erase(it);
  ++destroyed_;
  GSIGHT_INVARIANT(created_ - destroyed_ == instances_.size(),
                   "instance accounting drifted");
  check_backlog();
  return true;
}

void Cluster::set_tracer(obs::Tracer* tracer) {
  for (auto& s : servers_) s->set_tracer(tracer);
}

void Cluster::check_backlog() const {
#if GSIGHT_CONTRACT_LEVEL >= 2
  std::size_t scanned = 0;
  for (const auto& [id, inst] : instances_) scanned += inst->backlog();
  GSIGHT_INVARIANT(backlog_ == scanned,
                   "backlog count drifted from the instance scan");
#endif
}

std::vector<Instance*> Cluster::instances() const {
  std::vector<Instance*> out;
  out.reserve(instances_.size());
  for (const auto& [id, inst] : instances_) out.push_back(inst.get());
  return out;
}

double Cluster::cpu_utilization() const {
  double sum = 0.0;
  for (const auto& s : servers_) sum += s->cpu_utilization();
  return sum / static_cast<double>(servers_.size());
}

double Cluster::memory_utilization() const {
  double used = 0.0, cap = 0.0;
  for (const auto& s : servers_) {
    used += s->resident_mem_gb();
    cap += s->config().mem_gb;
  }
  return cap > 0.0 ? used / cap : 0.0;
}

}  // namespace gsight::sim

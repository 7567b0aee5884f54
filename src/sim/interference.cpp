#include "sim/interference.hpp"

#include <algorithm>
#include <cmath>

namespace gsight::sim {

namespace {

// Queueing-style latency factor for a shared channel, driven by the
// *corunners'* utilisation: factor = 1 + u_others / (1 - u_total). A solo
// run sees exactly 1 regardless of its own demand, and growing the
// channel capacity monotonically shrinks the factor (for moderate loads
// this is algebraically identical to the classic (1-u_own)/(1-u_total)
// form, but it has no artifact when one tenant alone saturates the
// channel).
double channel_factor(double own, double total, double capacity, double cap_u) {
  if (capacity <= 0.0) return 1.0;
  const double u_total = std::min(total / capacity, cap_u);
  const double u_others = std::min(std::max(total - own, 0.0) / capacity, cap_u);
  return 1.0 + u_others / (1.0 - u_total);
}

}  // namespace

void InterferenceModel::evaluate(const ServerConfig& server,
                                 std::span<const wl::Phase* const> phases,
                                 std::vector<ExecObservation>& out) const {
  out.assign(phases.size(), ExecObservation{});

  DemandTotals totals;
  std::size_t active = 0;
  for (const auto* p : phases) {
    if (p == nullptr) continue;
    totals.add(p->demand);
    ++active;
  }
  if (active == 0) return;

  // CPU: time-slicing once demanded cores exceed the node.
  const double cpu_factor = std::max(1.0, totals.cores / server.cores);
  // LLC: proportional shares capped at capacity.
  const bool llc_over = totals.llc_mb > server.llc_mb;
  // Memory overcommit -> swapping penalty shared by everyone.
  const double overcommit_gb = std::max(0.0, totals.mem_gb - server.mem_gb);
  const double swap_factor =
      1.0 + params_.swap_penalty_per_gb * overcommit_gb;
  // Frequency droop with node-wide CPU pressure.
  const double pressure = std::min(1.0, totals.cores / server.cores);
  const double freq = server.base_freq_ghz * (1.0 - params_.freq_droop * pressure);

  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto* p = phases[i];
    if (p == nullptr) continue;
    const auto& d = p->demand;
    const auto& u = p->uarch;
    ExecObservation& ob = out[i];

    // --- LLC share and induced extra misses -----------------------------
    const double occupancy =
        llc_over ? server.llc_mb * d.llc_mb / totals.llc_mb : d.llc_mb;
    const double miss_inflation =
        d.llc_mb > 0.0 ? (d.llc_mb - occupancy) / d.llc_mb : 0.0;
    // Requests that used to hit in L2/L3 now travel further.
    const double extra_l3 =
        params_.llc_spill_fraction * u.l2_mpki * miss_inflation;
    const double eff_l3 = u.l3_mpki + extra_l3;
    const double eff_l2 = u.l2_mpki * (1.0 + 0.8 * miss_inflation);

    // --- Memory bandwidth queueing ---------------------------------------
    const double bw_factor =
        channel_factor(d.membw_gbps, totals.membw_gbps, server.membw_gbps,
                       params_.max_utilization);

    // --- CPI composition --------------------------------------------------
    const double mlp = std::max(u.mem_lp, 1.0);
    const double cpi_solo = 1.0 / std::max(u.base_ipc, 1e-3);
    const double cpi_mem_solo =
        u.l3_mpki / 1000.0 * params_.mem_latency_cycles / mlp;
    const double cpi_extra_llc =
        extra_l3 / 1000.0 * params_.mem_latency_cycles / mlp * bw_factor;
    const double cpi_extra_bw = cpi_mem_solo * (bw_factor - 1.0);
    const double cpi_co = cpi_solo + cpi_extra_llc + cpi_extra_bw;
    ob.uarch_slowdown = cpi_co / cpi_solo;
    ob.ipc = u.base_ipc / ob.uarch_slowdown;

    // --- IO channels -------------------------------------------------------
    const double disk_factor =
        channel_factor(d.disk_mbps, totals.disk_mbps, server.disk_mbps,
                       params_.max_utilization);
    const double net_factor =
        channel_factor(d.net_mbps, totals.net_mbps, server.net_mbps,
                       params_.max_utilization);

    // --- Progress rate ------------------------------------------------------
    const double frac_other =
        std::max(0.0, 1.0 - d.frac_cpu - d.frac_disk - d.frac_net);
    const double denom = d.frac_cpu * cpu_factor * ob.uarch_slowdown +
                         d.frac_disk * disk_factor +
                         d.frac_net * net_factor + frac_other;
    ob.rate = 1.0 / std::max(denom, 1e-9) / swap_factor;
    ob.cpu_share = 1.0 / cpu_factor;

    // --- Synthetic counters --------------------------------------------------
    const double crowd = static_cast<double>(active - 1);
    ob.llc_occupancy_mb = occupancy;
    ob.l2_mpki = eff_l2;
    ob.l3_mpki = eff_l3;
    // Private caches and TLBs suffer mildly from time-slicing (warmup after
    // each context switch) — a small, crowd-dependent inflation.
    const double slice_pollution = 0.05 * (cpu_factor - 1.0) + 0.01 * crowd;
    ob.l1i_mpki = u.l1i_mpki * (1.0 + slice_pollution);
    ob.l1d_mpki = u.l1d_mpki * (1.0 + slice_pollution + 0.2 * miss_inflation);
    ob.branch_mpki = u.branch_mpki * (1.0 + 0.5 * slice_pollution);
    ob.dtlb_mpki = u.dtlb_mpki * (1.0 + slice_pollution + 0.3 * miss_inflation);
    ob.itlb_mpki = u.itlb_mpki * (1.0 + slice_pollution);
    ob.mem_lp = u.mem_lp;
    ob.ctx_per_s = params_.base_ctx_per_s * d.cores *
                   (cpu_factor * cpu_factor) * (1.0 + 0.3 * crowd);
    ob.cpu_freq_ghz = freq;
    // Achieved traffic scales with actual progress.
    ob.membw_gbps = d.membw_gbps * std::min(1.0, ob.rate * denom) / bw_factor;
    ob.disk_mbps = d.disk_mbps / disk_factor;
    ob.net_mbps = d.net_mbps / net_factor;
  }
}

ExecObservation InterferenceModel::solo(const ServerConfig& server,
                                        const wl::Phase& p) const {
  const wl::Phase* ptr = &p;
  std::vector<ExecObservation> out;
  evaluate(server, std::span<const wl::Phase* const>(&ptr, 1), out);
  return out[0];
}

}  // namespace gsight::sim

// InterferenceModel — the contention "physics" of a server. Given the set
// of phases currently executing on one node, it produces, for each
// execution: (a) the progress-rate multiplier (1.0 = solo speed) and
// (b) the synthetic system/microarchitecture counters a profiler would
// observe (effective IPC, MPKIs, context switches, frequency, occupancies).
//
// The model is a CPI decomposition:
//   cpi_co = cpi_solo
//          + Δ(L3 MPKI) · mem_latency / MLP            (LLC-share loss)
//          + cpi_mem_solo · (bw_factor − 1)            (bandwidth queueing)
// with CPU time-slicing when Σcores exceeds the node, and 1/(1−U) queueing
// factors on disk and NIC time fractions. Solo execution yields every
// factor = 1 by construction, so solo profiles are exact.
//
// This is where the paper's qualitative observations are grounded:
// network-bound corunners barely move IPC (Obs 1), cache/bandwidth-hungry
// phases are the sensitive windows (Obs 3), and memory overcommit models
// swapping cliffs the schedulers must avoid.
#pragma once

#include <span>
#include <vector>

#include "sim/resources.hpp"
#include "workloads/phase.hpp"

namespace gsight::sim {

struct InterferenceParams {
  double mem_latency_cycles = 200.0;  ///< DRAM round trip, cycles
  /// Fraction of lost-LLC hits that convert to L3 misses.
  double llc_spill_fraction = 0.6;
  /// Cap on any 1/(1-U) queueing factor (U clamped below 1). Real memory
  /// systems degrade more gracefully than an M/M/1 pole, so the clamp is
  /// deliberately conservative.
  double max_utilization = 0.90;
  /// Context switches per second for a solo single-thread function.
  double base_ctx_per_s = 120.0;
  /// Frequency droop at full-node utilisation (fraction of base clock).
  double freq_droop = 0.06;
  /// Progress-rate penalty factor applied per GB of memory overcommit
  /// (models swapping; schedulers must never trigger it).
  double swap_penalty_per_gb = 0.5;
};

/// Observable state of one execution under the current colocation.
struct ExecObservation {
  double rate = 1.0;          ///< phase progress per wall-clock second
  double ipc = 0.0;           ///< effective instructions per cycle
  double uarch_slowdown = 1.0;
  double cpu_share = 1.0;     ///< fraction of demanded cores actually granted
  double llc_occupancy_mb = 0.0;
  double l1i_mpki = 0.0, l1d_mpki = 0.0;
  double l2_mpki = 0.0, l3_mpki = 0.0;
  double branch_mpki = 0.0, dtlb_mpki = 0.0, itlb_mpki = 0.0;
  double mem_lp = 0.0;
  double ctx_per_s = 0.0;
  double cpu_freq_ghz = 0.0;
  double membw_gbps = 0.0;    ///< achieved memory traffic
  double disk_mbps = 0.0;     ///< achieved disk traffic
  double net_mbps = 0.0;      ///< achieved NIC traffic
};

class InterferenceModel {
 public:
  explicit InterferenceModel(InterferenceParams params = {})
      : params_(params) {}

  /// Evaluate all colocated phases on a node at once into `out`, which is
  /// resized to `phases.size()` (its capacity is reused, so a caller that
  /// keeps it allocates nothing on repeat calls). `phases[i]` may be null
  /// for idle slots (skipped; `out[i]` left default).
  void evaluate(const ServerConfig& server,
                std::span<const wl::Phase* const> phases,
                std::vector<ExecObservation>& out) const;

  /// Convenience: one execution alone on the node (must give rate == 1).
  ExecObservation solo(const ServerConfig& server, const wl::Phase& p) const;

  const InterferenceParams& params() const { return params_; }

 private:
  InterferenceParams params_;
};

}  // namespace gsight::sim

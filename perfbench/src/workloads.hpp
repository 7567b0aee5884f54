// The three workloads of the repository benchmark (README.md says why
// each was chosen). Each runs in this process, makes its inputs from
// options.seed, repeats its timed phase until options.seconds have passed,
// checks its outputs, and fills `report` with every end-to-end and
// per-layer metric.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_sched_day(const Options& options, Report& report);
void run_estate_day(const Options& options, Report& report);
void run_serve_open(const Options& options, Report& report);

/// Value printed for an end-to-end metric that a workload has no notion
/// of (e.g. function density on the prediction service): every workload
/// prints every metric, and this neutral value is never 0.
inline constexpr double kNotApplicable = 1.0;

/// Declare every per-layer metric at 0, so that a workload which never
/// calls into a layer still prints that layer's metrics (as "no work").
void declare_layer_metrics(Report& report);

/// Median latency of a workload's unit of work at low load (p50_us.low);
/// sample counts, tails and the high-load figures are run facts.
void report_latency(Report& report, const Quantiles& low, const Quantiles& high);

}  // namespace perfbench

// perfbench — the repository benchmark (see README.md).
//
//   perfbench --workload sched_day|estate_day|serve_open --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--out-dir DIR]
//
// Prints every metric by name with its unit, then one JSON line:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// when untraced, the per-layer metrics when traced. Exits 1 if an output
// check failed, 2 on a usage error or exception (printing no result).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "workloads.hpp"

namespace perfbench {

void declare_layer_metrics(Report& report) {
  static const char* const kLayerMetrics[][2] = {
      {"sim.run_s", "s"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.epochs", "count"},
      {"sim.messages", "count"},
      {"sim.requests", "count"},
      {"profiling.s", "s"},
      {"profiling.apps", "count"},
      {"core.build_s", "s"},
      {"core.scenarios", "count"},
      {"core.train_s", "s"},
      {"ml.update_s", "s"},
      {"ml.updates", "count"},
      {"ml.predict_s", "s"},
      {"ml.predict_calls", "count"},
      {"ml.predict_rows", "count"},
      {"ml.warm_fit_s", "s"},
      {"sched.decisions", "count"},
      {"sched.refusals", "count"},
      {"sched.sla_checks", "count"},
      {"sched.decision_p50_us", "us"},
      {"sched.decision_tail_us", "us"},
      {"sched.self_s", "s"},
      {"serve.batches", "count"},
      {"serve.mean_batch", "count"},
      {"serve.train_rounds", "count"},
      {"serve.hot_swaps", "count"},
      {"serve.shed", "count"},
      {"serve.observations_shed", "count"},
      {"serve.service_p50_us", "us"},
      {"serve.p50_us.high", "us"},
      {"serve.p50_us.top", "us"},
      {"serve.max_ok_rate_rps", "1/s"},
      {"serve.tail_us.low", "us"},
      {"serve.tail_us.high", "us"},
      {"serve.tail_us.top", "us"},
      {"serve.gen_late_p50_us", "us"},
      {"serve.gen_late_max_us", "us"},
      {"trace.overhead_s", "s"},
  };
  for (const auto& [name, unit] : kLayerMetrics) report.layer(name, 0.0, unit);
}

void report_latency(Report& report, const Quantiles& low, const Quantiles& high) {
  report.end_to_end("p50_us.low", low.p50, "us");
  for (const auto& [name, q] : {std::pair{"low", &low}, std::pair{"high", &high}}) {
    const std::string key = std::string("latency.") + name;
    report.info(key + ".samples", static_cast<double>(q->n));
    report.info(key + ".p50_us", q->p50);
    report.info(key + ".tail_us", q->tail);
    report.info(key + ".tail_pct", q->tail_pct);
  }
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sched_day|estate_day|serve_open --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--size") {
      if (value != "full" && value != "tiny") return usage("bad --size");
      options.tiny = value == "tiny";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  options.nproc = perfbench::affinity_cpus();

  perfbench::Report report;
  perfbench::tag_host(options, report);
  perfbench::declare_layer_metrics(report);
  try {
    if (options.workload == "sched_day") {
      perfbench::run_sched_day(options, report);
    } else if (options.workload == "estate_day") {
      perfbench::run_estate_day(options, report);
    } else if (options.workload == "serve_open") {
      perfbench::run_serve_open(options, report);
    } else {
      return usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 2;
  }
  report.print(options.trace);
  return report.correct() ? 0 : 1;
}

// Shared plumbing for the reproduction benches: paper-scale configs,
// table printing, and timing helpers. Every bench is a standalone binary
// that prints the rows/series of one table or figure from the paper.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/parse_uint.hpp"
#include "core/trainer.hpp"
#include "ml/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "stats/summary.hpp"

namespace gsight::bench {

/// A count from environment variable `name` (read here in bench/, where
/// getenv is allowed), parsed with core::parse_uint; `fallback` when
/// unset. A value that is not a count up to `max` ends the bench with
/// exit code 2 rather than running with a misread number.
inline std::size_t env_count(const char* name, std::size_t fallback,
                             std::uint64_t max) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  if (const auto n = core::parse_uint(s, max)) return *n;
  std::fprintf(stderr,
               "error: %s wants an unsigned integer up to %llu, got '%s'\n",
               name, static_cast<unsigned long long>(max), s);
  std::exit(2);
}

/// Campaign thread budget: GSIGHT_THREADS=N caps the fan-out, 1 forces
/// serial, unset/0 uses all hardware threads. Thread count never changes
/// bench numbers (campaigns are bit-identical across thread counts), only
/// the wall-clock.
inline std::size_t env_threads() {
  return env_count("GSIGHT_THREADS", 0, core::kMaxThreads);
}

/// Replication count for the scheduling campaigns (fig11/fig12):
/// GSIGHT_REPS=N runs each scheduler N times on derived seeds and reports
/// mean ± 95% CI. Default 1 keeps the default bench wall-clock flat.
inline std::size_t env_reps() {
  const std::size_t n =
      env_count("GSIGHT_REPS", 1, std::numeric_limits<std::size_t>::max());
  return n > 0 ? n : 1;
}

/// CampaignOptions honouring GSIGHT_THREADS.
inline core::CampaignOptions campaign_options() {
  core::CampaignOptions opts;
  opts.threads = env_threads();
  return opts;
}

/// The common bench pattern: a BuildRequest wired to GSIGHT_THREADS.
inline core::BuildRequest build_request(core::ColocationClass cls,
                                        core::QosKind qos,
                                        std::size_t count) {
  core::BuildRequest request;
  request.cls = cls;
  request.qos = qos;
  request.count = count;
  request.campaign = campaign_options();
  return request;
}

/// Paper-scale dataset-builder configuration: 8 sockets as placement
/// units, encoder slots n=10 (dims = 32*10*8 + 20 = 2 580, §6.4).
inline core::BuilderConfig paper_builder_config() {
  core::BuilderConfig cfg;
  cfg.runner.servers = 8;
  cfg.runner.server = sim::ServerConfig::socket();
  cfg.runner.warmup_s = 5.0;
  cfg.runner.ls_measure_s = 40.0;
  cfg.runner.label_window_s = 5.0;
  cfg.encoder.servers = 8;
  cfg.encoder.max_workloads = 10;
  cfg.ls_qps_levels = {20.0, 40.0, 60.0};
  cfg.min_workloads = 2;
  cfg.max_workloads = 3;
  cfg.sc_scale = 0.12;
  cfg.profiler.ls_profile_s = 30.0;
  cfg.profiler.server = sim::ServerConfig::socket();
  return cfg;
}

/// A faster variant for the heavier sweeps (same geometry, shorter runs).
inline core::BuilderConfig quick_builder_config() {
  core::BuilderConfig cfg = paper_builder_config();
  cfg.runner.ls_measure_s = 25.0;
  cfg.runner.label_window_s = 2.5;
  cfg.profiler.ls_profile_s = 20.0;
  return cfg;
}

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void rule() {
  std::printf("%s\n", std::string(78, '-').c_str());
}

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double millis() const { return seconds() * 1e3; }
  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-bench harness: owns the RunReport and the optional trace sink.
///
///   int main() {
///     gsight::bench::Run run("fig14_overhead");
///     ...
///     run.result("forward_p50_us", v, "us");
///   }  // <- BENCH_fig14_overhead.json written here
///
/// Environment knobs (read here, in bench/, where wall clocks and getenv
/// are allowed — src/ is lint-clean of both):
///   GSIGHT_TRACE=<path>    — install a StreamTraceSink as the process
///                            default sink; any sim::Platform built
///                            without an explicit sink then emits a
///                            Chrome trace to <path>.
///   GSIGHT_BENCH_DIR=<dir> — where BENCH_<name>.json lands (default .);
///                            created if missing.
class Run {
 public:
  explicit Run(std::string name) : report_(std::move(name)) {
    if (const char* path = std::getenv("GSIGHT_TRACE")) {
      trace_file_.open(path);
      if (trace_file_) {
        trace_path_ = path;
        trace_sink_ = std::make_unique<obs::StreamTraceSink>(trace_file_);
        obs::set_default_trace_sink(trace_sink_.get());
      } else {
        std::fprintf(stderr, "[bench] cannot open GSIGHT_TRACE=%s\n", path);
      }
    }
  }

  ~Run() {
    if (trace_sink_) {
      obs::set_default_trace_sink(nullptr);
      trace_sink_->close();
      trace_sink_.reset();
      std::printf("[bench] chrome trace written to %s\n", trace_path_.c_str());
    }
    report_.set_wall_time_s(stopwatch_.seconds());
    const char* dir = std::getenv("GSIGHT_BENCH_DIR");
    if (dir != nullptr) {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);  // best-effort
    }
    const std::string path = report_.write(dir != nullptr ? dir : ".");
    if (path.empty()) {
      std::fprintf(stderr, "[bench] failed to write run report\n");
    } else {
      std::printf("[bench] report written to %s\n", path.c_str());
    }
  }

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  void result(const std::string& name, double value,
              const std::string& unit = "") {
    report_.add_result(name, value, unit);
  }
  obs::RunReport& report() { return report_; }
  double elapsed_s() const { return stopwatch_.seconds(); }

 private:
  obs::RunReport report_;
  Stopwatch stopwatch_;
  std::ofstream trace_file_;
  std::string trace_path_;
  std::unique_ptr<obs::StreamTraceSink> trace_sink_;
};

/// Train/test split over per-scenario sample groups (no window leakage).
inline std::pair<ml::Dataset, std::vector<const core::ScenarioSamples*>>
split_scenarios(const std::vector<core::ScenarioSamples>& samples,
                double train_fraction, std::size_t dim) {
  const auto cut =
      static_cast<std::size_t>(train_fraction * static_cast<double>(samples.size()));
  ml::Dataset train(dim);
  std::vector<const core::ScenarioSamples*> test;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i < cut) {
      for (double l : samples[i].labels) train.add(samples[i].features, l);
    } else {
      test.push_back(&samples[i]);
    }
  }
  return {std::move(train), std::move(test)};
}

/// MAPE of a scenario predictor over held-out scenario groups (predicting
/// each group's mean label).
inline double scenario_mape(const core::ScenarioPredictor& predictor,
                            const std::vector<const core::ScenarioSamples*>& test) {
  std::vector<double> truth, pred;
  for (const auto* s : test) {
    truth.push_back(stats::mean(s->labels));
    pred.push_back(predictor.predict(s->outcome.scenario));
  }
  return ml::mape(truth, pred);
}

}  // namespace gsight::bench

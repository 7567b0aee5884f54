// sched_day — the Figure 11/12 compressed diurnal day under the Gsight
// scheduler with its online feedback loop: the only pipeline that runs
// every layer (sim, profiling, core, ml training and inference, sched).
//
// Set-up mirrors the scheduling study of the reproduction benches
// (bench/sched_study.hpp): the colocation training stream, the knee
// curve, solo profiles of every deployed app and the initial train. The
// timed phase is one SchedulingExperiment::run. Each repetition sets up
// from scratch (the online loop mutates the predictor), so setup_s and
// run_s are medians over repetitions.
//
// The day itself is the study's seed-2021 day: its trace and arrivals are
// fixed, so density and the SLA fraction are exact guards (a speed-up that
// changes a placement shows). --seed makes the training stream the
// predictor learns from: the scenarios, their profiles and the initial
// model. Across seeds the day's placements stay the same and the
// prequential error and every timing move.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/sla.hpp"
#include "core/trainer.hpp"
#include "measured.hpp"
#include "sched/experiment.hpp"
#include "sched/gsight_scheduler.hpp"
#include "stats/seed_stream.hpp"
#include "workloads.hpp"
#include "workloads/azure_trace.hpp"
#include "workloads/ecommerce.hpp"
#include "workloads/functionbench.hpp"
#include "workloads/socialnetwork.hpp"

namespace perfbench {
namespace {

using namespace gsight;

/// The study's day: seed 2021, experiment sub-stream 1 (as in the study).
constexpr std::uint64_t kDaySeed = 2021;
constexpr std::uint64_t kExperimentSeedStream = 1;

struct Study {
  prof::ProfileStore store;
  std::vector<core::ScenarioSamples> stream;
  std::unique_ptr<core::LatencyIpcCurve> curve;
  std::unique_ptr<core::GsightPredictor> predictor;
  sched::ExperimentConfig experiment;
  std::size_t profiled_apps = 0;
};

/// The study's builder configuration (quick builder, SC scale 0.08).
core::BuilderConfig builder_config(bool tiny) {
  core::BuilderConfig cfg;
  cfg.runner.servers = 8;
  cfg.runner.server = sim::ServerConfig::socket();
  cfg.runner.warmup_s = 5.0;
  cfg.runner.ls_measure_s = tiny ? 8.0 : 25.0;
  cfg.runner.label_window_s = 2.5;
  cfg.encoder.servers = 8;
  cfg.encoder.max_workloads = 10;
  cfg.ls_qps_levels = {20.0, 40.0, 60.0};
  cfg.min_workloads = 2;
  cfg.max_workloads = 3;
  cfg.sc_scale = 0.08;
  cfg.profiler.ls_profile_s = tiny ? 8.0 : 20.0;
  cfg.profiler.server = sim::ServerConfig::socket();
  return cfg;
}

std::unique_ptr<Study> set_up(const Options& options, Spans& spans) {
  const Scope setup_scope(spans, "setup");
  auto study = std::make_unique<Study>();
  const core::BuilderConfig cfg = builder_config(options.tiny);
  core::CampaignOptions campaign;
  campaign.threads = options.nproc;

  // --- Colocation training stream ----------------------------------------
  core::DatasetBuilder builder(&study->store, cfg, options.seed);
  for (const auto cls :
       {core::ColocationClass::kLsLs, core::ColocationClass::kLsScBg}) {
    core::BuildRequest request;
    request.cls = cls;
    request.qos = core::QosKind::kIpc;
    request.count = options.tiny ? 6 : 130;
    request.campaign = campaign;
    std::vector<core::ScenarioSamples> part;
    {
      const Scope scope(spans, "core.build");
      part = builder.build(request);
    }
    for (auto& s : part) study->stream.push_back(std::move(s));
  }

  // --- Knee curve on solo-normalised axes ----------------------------------
  {
    const Scope scope(spans, "core.knee");
    std::vector<core::LatencyIpcPoint> points;
    for (const auto& s : study->stream) {
      const auto* profile = s.outcome.scenario.workloads[0].profile;
      if (profile->solo_mean_ipc <= 0.0 || profile->solo_e2e_p99_s <= 0.0) {
        continue;
      }
      for (const auto& [ipc, p99] : s.outcome.window_ipc_p99) {
        points.push_back(
            {ipc / profile->solo_mean_ipc, p99 / profile->solo_e2e_p99_s});
      }
    }
    study->curve = std::make_unique<core::LatencyIpcCurve>(points);
  }

  // --- Solo profiles of the apps the dataset phase did not profile --------
  std::vector<prof::ProfileRequest> missing;
  for (const auto& app :
       {wl::social_network(), wl::e_commerce(), wl::matmul(3.0 * cfg.sc_scale),
        wl::dd(3.0 * cfg.sc_scale), wl::video_processing(4.0 * cfg.sc_scale),
        wl::iot_collector()}) {
    if (!study->store.contains(app.name)) {
      prof::ProfileRequest request;
      request.app = app;
      missing.push_back(std::move(request));
    }
  }
  study->profiled_apps = missing.size();
  prof::ProfileStore profiled;
  {
    const Scope scope(spans, "profiling.profile_all");
    profiled = core::profile_all(cfg.profiler, missing, campaign);
  }
  for (const auto& [name, profile] : profiled.all()) study->store.put(profile);

  // --- Experiment ---------------------------------------------------------
  sched::ExperimentConfig& ec = study->experiment;
  ec.servers = 8;
  ec.server = sim::ServerConfig::socket();
  ec.duration_s = options.tiny ? 60.0 : 480.0;
  ec.sample_period_s = 2.0;
  ec.sla_window_s = 10.0;
  ec.sc_job_period_s = 30.0;
  ec.sc_scale = cfg.sc_scale;
  ec.trace.base_qps = 60.0;
  ec.trace.day_seconds = ec.duration_s;
  ec.trace.diurnal_amplitude = 0.55;
  ec.autoscaler.tick_s = 5.0;
  ec.autoscaler.max_replicas = 24;
  ec.seed = stats::SeedStream::derive(kDaySeed, kExperimentSeedStream);

  // --- Initial train: the deployed IRFR with an explicitly sized fit pool -
  core::PredictorConfig pcfg;
  pcfg.encoder = cfg.encoder;
  pcfg.model = core::ModelKind::kIRFR;
  ml::IncrementalForestConfig forest = core::deployed_irfr_config();
  forest.forest.threads = options.nproc;
  study->predictor = std::make_unique<core::GsightPredictor>(
      pcfg, std::make_unique<ml::IncrementalForest>(forest, pcfg.seed));
  ml::Dataset train(study->predictor->encoder().dimension());
  for (const auto& s : study->stream) {
    for (const double l : s.labels) train.add(s.features, l);
  }
  const Scope scope(spans, "core.train");
  study->predictor->train(train);
  return study;
}

/// Offered LS request rate at simulated time t: the experiment drives its
/// two LS apps with Zipf-weighted, phase-shifted copies of the trace.
double offered_rate(const sched::ExperimentConfig& ec, double t) {
  const std::size_t apps = 2;
  const auto weights = wl::zipf_weights(apps);
  double total = 0.0;
  for (std::size_t i = 0; i < apps; ++i) {
    wl::AzureTraceConfig tc = ec.trace;
    tc.base_qps = ec.trace.base_qps * weights[i] * static_cast<double>(apps);
    tc.phase_shift = 0.7 * static_cast<double>(i);
    total += wl::AzureTraceGenerator(tc).rate_at(t);
  }
  return total;
}

/// Everything in the report, doubles in hexfloat: equal digests iff the
/// two runs produced bit-identical reports.
std::string report_digest(const sched::ExperimentReport& r) {
  std::ostringstream os;
  os << std::hexfloat << r.scheduler << '\n';
  for (const auto* series :
       {&r.density_samples, &r.cpu_util_samples, &r.mem_util_samples}) {
    for (const double v : *series) os << v << ' ';
    os << '\n';
  }
  for (const auto& a : r.sla) {
    os << a.app << ' ' << a.sla_p99_s << ' ' << a.satisfied_fraction << ' '
       << a.overall_p99_s << '\n';
  }
  os << r.scale_outs << ' ' << r.scale_ins << ' ' << r.cold_starts << ' '
     << r.requests_completed << ' ' << r.requests_failed << ' '
     << r.jobs_completed << '\n'
     << r.metrics_json << '\n';
  return fnv1a_hex(os.str());
}

/// A gauge's value from the report's compact metrics JSON.
double gauge_value(const std::string& metrics_json, const std::string& name) {
  const std::string key = "\"name\":\"" + name + "\"";
  const auto at = metrics_json.find(key);
  if (at == std::string::npos) return 0.0;
  const auto value = metrics_json.find("\"value\":", at);
  if (value == std::string::npos) return 0.0;
  return std::strtod(metrics_json.c_str() + value + 8, nullptr);
}

}  // namespace

void run_sched_day(const Options& options, Report& report) {
  Samples e2e;
  Samples layers;
  RunTimes runs;
  std::vector<double> step_low_us;
  std::vector<double> step_high_us;
  std::string first_digest;
  gsight::obs::MemoryTraceSink trace_sink;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Repetitions reps(options, options.trace ? 2 : (options.tiny ? 1 : 3));
  while (reps.next()) {
    const bool traced = reps.traced();
    Spans spans(traced);

    const std::uint64_t setup_start = now_ns();
    auto study = set_up(options, spans);
    const double setup_s = seconds_between(setup_start, now_ns());

    sched::SchedulingExperiment experiment(&study->store, study->experiment);
    experiment.set_sla_curve(study->curve.get());
    MeasuredPredictor predictor(*study->predictor, spans);
    sched::GsightSchedulerConfig gc;
    gc.sla_margin = 0.85;
    sched::GsightScheduler gsight(&predictor, gc);
    MeasuredScheduler scheduler(gsight, spans);

    const std::uint64_t run_start = now_ns();
    const std::int64_t run_span = spans.open("sched_day.run");
    const sched::ExperimentReport result = experiment.run(scheduler, &predictor);
    spans.close(run_span);
    const double run_s = seconds_between(run_start, now_ns());

    // --- Output checks ------------------------------------------------------
    const std::string digest = report_digest(result);
    if (first_digest.empty()) first_digest = digest;
    report.check(digest == first_digest,
                 "sched_day repetition " + std::to_string(reps.index()) +
                     " digest " + digest + " differs from " + first_digest);
    report.check(result.sla.size() == 2 && !result.density_samples.empty(),
                 "sched_day report is missing SLA rows or density samples");
    attempted += result.requests_completed + result.requests_failed;
    failed += result.requests_failed;

    // --- Unit of work: one SLA window of the day, split by offered load ----
    const auto& done = predictor.flush_done_ns();
    std::vector<double> rates;
    for (std::size_t k = 0; k < done.size(); ++k) {
      rates.push_back(offered_rate(
          study->experiment, study->experiment.sla_window_s * (k + 0.5)));
    }
    const double rate_median = median(rates);
    std::uint64_t prev = run_start;
    for (std::size_t k = 0; k < done.size(); ++k) {
      const double us = seconds_between(prev, done[k]) * 1e6;
      (rates[k] < rate_median ? step_low_us : step_high_us).push_back(us);
      prev = done[k];
    }

    double sla_min = 1.0;
    for (const auto& a : result.sla) sla_min = std::min(sla_min, a.satisfied_fraction);
    const double requests =
        static_cast<double>(result.requests_completed + result.requests_failed);
    e2e.add("setup_s", setup_s, "s");
    e2e.add("density", result.mean_density(), "inst/core");
    e2e.add("sla_met_frac", sla_min, "frac");
    e2e.add("online_mape", predictor.online_mape(), "frac");
    e2e.add("ok_frac",
            requests > 0.0
                ? static_cast<double>(result.requests_completed) / requests
                : 0.0,
            "frac");
    runs.add(traced, run_s);
    if (!traced) continue;

    // --- Per-layer metrics from the traced repetition ---------------------
    const double ml_update_s = spans.total_s("ml.observe") + spans.total_s("ml.flush");
    const double ml_predict_s =
        spans.total_s("ml.predict") + spans.total_s("ml.predict_batch");
    const double sim_s = spans.self_s("sched_day.run");
    const double events = gauge_value(result.metrics_json, "engine.events");
    layers.add("sim.run_s", sim_s, "s");
    layers.add("sim.events", events, "count");
    layers.add("sim.events_per_s", sim_s > 0.0 ? events / sim_s : 0.0, "1/s");
    layers.add("sim.requests", requests, "count");
    layers.add("profiling.s", spans.total_s("profiling.profile_all"), "s");
    layers.add("profiling.apps", static_cast<double>(study->profiled_apps), "count");
    layers.add("core.build_s", spans.total_s("core.build"), "s");
    layers.add("core.scenarios", static_cast<double>(study->stream.size()), "count");
    layers.add("core.train_s", spans.total_s("core.train"), "s");
    layers.add("ml.update_s", ml_update_s, "s");
    layers.add("ml.updates", static_cast<double>(spans.count("ml.flush")), "count");
    layers.add("ml.predict_s", ml_predict_s, "s");
    layers.add("ml.predict_calls", static_cast<double>(predictor.predict_calls()), "count");
    layers.add("ml.predict_rows", static_cast<double>(predictor.predict_rows()), "count");
    std::vector<double> decisions_us = spans.durations_us("sched.place_workload");
    for (const double us : spans.durations_us("sched.place_replica")) {
      decisions_us.push_back(us);
    }
    const Quantiles dq = quantiles(decisions_us);
    layers.add("sched.decisions", static_cast<double>(scheduler.decisions()), "count");
    layers.add("sched.refusals", static_cast<double>(gsight.refusals()), "count");
    layers.add("sched.sla_checks", static_cast<double>(gsight.sla_checks()), "count");
    layers.add("sched.decision_p50_us", dq.p50, "us");
    layers.add("sched.decision_tail_us", dq.tail, "us");
    layers.add("sched.self_s",
               spans.self_s("sched.place_workload") +
                   spans.self_s("sched.place_replica"),
               "s");
    if (trace_sink.size() == 0) spans.export_to(trace_sink, setup_start);
  }

  report.end_to_end_medians(e2e);
  runs.report_to(report, options.trace);
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  report.end_to_end("capacity_rps", kNotApplicable, "1/s");
  report_latency(report, quantiles(step_low_us), quantiles(step_high_us));
  report.operations(attempted, failed);
  report.info("threads.campaign", static_cast<double>(options.nproc));
  report.info("threads.forest_fit", static_cast<double>(options.nproc));

  if (options.trace) {
    report.layer_medians(layers);
    write_trace(options, trace_sink, report);
  }
  check_digest_across_runs(options, first_digest, report);
}

}  // namespace perfbench

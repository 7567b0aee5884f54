// serve_open — the deployed 80-tree IRFR at 2580 dims behind a threaded
// serve::PredictionService, driven by an open-loop Poisson generator at a
// few fixed rates, with a light labelled-observation stream at the top
// rate so snapshot hot swaps happen under load, then drained from queued
// bursts to measure its capacity. ML work here is mostly reads (batched
// inference), beside the writes of sched_day.
//
// The generator is built on PredictionService::submit. Every input (the
// feature-row pool, arrival times, row choices, observation labels) is
// made from the seed before the timed phase; each request's feature
// vector is copied from the pool before its due time, and latency is
// timed from the due time, so a stall of the service or of the generator
// counts against every request it delays. How late the generator ran is
// reported beside it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.hpp"
#include "ml/dataset.hpp"
#include "ml/incremental_forest.hpp"
#include "obs/trace.hpp"
#include "serve/load_driver.hpp"
#include "serve/service.hpp"
#include "stats/rng.hpp"
#include "stats/seed_stream.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gsight;

/// Tail-latency limit of serve.max_ok_rate_rps: a swept rate passes if its
/// tail latency (from due time) stays within this, nothing was shed and the
/// backlog did not grow.
constexpr double kTailLimitUs = 2500.0;
/// Tails are taken per window of this many seconds of arrivals and
/// reported as the median window tail: a host stall that hits one window
/// moves one window, not the run.
constexpr double kWindowS = 0.25;
/// A generator whose median lateness in a phase exceeds this could not
/// keep the schedule; the run is then reported invalid.
constexpr double kMaxGeneratorLateUs = 100.0;
/// Capacity: bursts of this many requests, queued before the worker
/// starts, drained kBursts times per repetition.
constexpr std::size_t kBurst = 4096;
constexpr std::size_t kBursts = 24;
/// At the top rate, every kObserveEvery-th request also feeds one
/// labelled observation, so training rounds and hot swaps happen under
/// load; the low and high rates measure serving alone.
constexpr std::size_t kObserveEvery = 64;
/// Traced runs export every kTraceEvery-th request as an async span.
constexpr std::size_t kTraceEvery = 16;

struct Shape {
  std::size_t dim;
  std::size_t warm_rows;
  std::size_t pool_rows;
  std::vector<double> rates;  ///< swept rates (req/s): low, high, top
  double phase_s;             ///< seconds of arrivals per rate
};

Shape shape_for(const Options& options) {
  if (options.tiny) return {64, 64, 64, {500.0, 2000.0, 8000.0}, 0.25};
  return {2580, 256, 1024, {1000.0, 4000.0, 8000.0}, 1.5};
}

/// Per-request record; each is written by exactly one completing thread
/// and read after the service has stopped (stop() joins the workers).
struct Record {
  std::uint64_t due_ns = 0;
  std::uint64_t done_ns = 0;
  std::uint64_t service_ns = 0;
  std::uint64_t version = 0;
  double value = 0.0;
  std::atomic<std::uint32_t> fired{0};
  bool accepted = false;
  bool observed = false;  ///< the request's row was also fed as an observation
};

/// Inputs made from the seed before anything is timed.
struct Inputs {
  std::vector<std::vector<double>> pool;  ///< feature rows
  std::vector<double> labels;             ///< ground truth per pool row
  ml::Dataset warm;
  /// Per rate: arrival offsets (ns from phase start) and pool row per request.
  std::vector<std::vector<std::uint64_t>> offsets_ns;
  std::vector<std::vector<std::uint32_t>> rows;
};

Inputs make_inputs(const Shape& shape, std::uint64_t seed) {
  Inputs in;
  stats::Rng rng(stats::SeedStream::derive(seed, 0));
  in.pool.assign(shape.pool_rows, std::vector<double>(shape.dim));
  for (auto& row : in.pool) {
    for (auto& v : row) v = rng.uniform();
    in.labels.push_back(serve::LoadDriver::label_of(row));
  }
  in.warm = ml::Dataset(shape.dim);
  std::vector<double> row(shape.dim);
  for (std::size_t i = 0; i < shape.warm_rows; ++i) {
    for (auto& v : row) v = rng.uniform();
    in.warm.add(row, serve::LoadDriver::label_of(row));
  }
  for (std::size_t r = 0; r < shape.rates.size(); ++r) {
    stats::Rng arrivals(stats::SeedStream::derive(seed, 1 + r));
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint32_t> rows;
    double t = 0.0;
    for (;;) {
      t += arrivals.exponential(shape.rates[r]);
      if (t >= shape.phase_s) break;
      offsets.push_back(static_cast<std::uint64_t>(t * 1e9));
      rows.push_back(
          static_cast<std::uint32_t>(arrivals.uniform_index(shape.pool_rows)));
    }
    in.offsets_ns.push_back(std::move(offsets));
    in.rows.push_back(std::move(rows));
  }
  return in;
}

/// Sleep most of the way to `due_ns`, then spin the rest.
void wait_until(std::uint64_t due_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= due_ns) return;
    if (due_ns - now > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - 100'000));
    }
  }
}

/// One rate of one sweep.
struct PhaseResult {
  std::vector<double> latency_us;  ///< from due time, in due order
  std::size_t shed = 0;
  std::uint64_t backlog_at_end = 0;
  double late_p50_us = 0.0;
};

/// Run one open-loop phase: submit every request at its due time, then
/// wait for the service to drain.
PhaseResult run_phase(serve::PredictionService& service, const Inputs& in,
                      std::size_t rate_index, bool observe_stream,
                      Record* records, std::vector<double>& late_us) {
  PhaseResult phase;
  const auto& offsets = in.offsets_ns[rate_index];
  const auto& rows = in.rows[rate_index];
  const std::size_t late_first = late_us.size();
  const std::uint64_t t0 = now_ns() + 1'000'000;
  std::vector<double> features = in.pool[rows.empty() ? 0 : rows[0]];
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    Record* rec = &records[i];
    const std::uint32_t row = rows[i];
    rec->observed = observe_stream && i % kObserveEvery == kObserveEvery - 1;
    std::vector<double> observed;
    if (rec->observed) observed = in.pool[row];
    rec->due_ns = t0 + offsets[i];
    wait_until(rec->due_ns);
    late_us.push_back(seconds_between(rec->due_ns, now_ns()) * 1e6);
    rec->accepted = service.submit(
        std::move(features), [rec](const serve::PredictResult& result) {
          rec->done_ns = now_ns();
          rec->value = result.value;
          rec->version = result.model_version;
          rec->service_ns = result.latency_ns;
          rec->fired.fetch_add(1, std::memory_order_release);
        });
    if (rec->observed) service.observe(std::move(observed), in.labels[row]);
    // The next request's vector is built before its due time.
    if (i + 1 < offsets.size()) features = in.pool[rows[i + 1]];
  }
  phase.backlog_at_end = service.in_flight();
  while (service.in_flight() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    // The acquire load pairs with the callback's release: its writes to
    // the record are visible from here on.
    while (records[i].accepted &&
           records[i].fired.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    if (records[i].accepted) {
      phase.latency_us.push_back(
          seconds_between(records[i].due_ns, records[i].done_ns) * 1e6);
    } else {
      ++phase.shed;
    }
  }
  phase.late_p50_us = median(std::vector<double>(
      late_us.begin() + static_cast<std::ptrdiff_t>(late_first), late_us.end()));
  return phase;
}

/// Capacity of one worker: requests per second a single-worker service
/// drains from a backlog queued before it starts, i.e. the highest arrival
/// rate one worker can absorb without its backlog growing. Every batch is
/// full, so this is the batched-inference read path without thread
/// hand-offs; one worker keeps it a single-core measure, steady on a shared
/// host. Each response must bit-equal the kept warm model's answer.
double drain_rate(serve::ServiceConfig config, const ml::IncrementalForest& warm,
                  const Inputs& in, std::size_t burst,
                  const std::vector<double>& expected, Report& report) {
  config.worker_threads = 1;
  serve::PredictionService service(config, warm);
  std::vector<double> values(burst, -1.0);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < burst; ++i) {
    double* slot = &values[i];
    accepted += service.submit(in.pool[i % in.pool.size()],
                               [slot](const serve::PredictResult& result) {
                                 *slot = result.value;
                               })
                    ? 1
                    : 0;
  }
  // stop() returns once the worker has drained every queued request.
  const std::uint64_t start = now_ns();
  service.start();
  service.stop();
  const double seconds = seconds_between(start, now_ns());
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < burst; ++i) {
    mismatched += values[i] == expected[i % in.pool.size()] ? 0 : 1;
  }
  report.check(accepted == burst && mismatched == 0,
               "serve_open: " + std::to_string(burst - accepted) +
                   " burst requests shed, " + std::to_string(mismatched) +
                   " drained responses differ from the kept model");
  return static_cast<double>(accepted) / seconds;
}

}  // namespace

void run_serve_open(const Options& options, Report& report) {
  const Shape shape = shape_for(options);
  const Inputs in = make_inputs(shape, options.seed);
  const std::size_t rates = shape.rates.size();
  const std::size_t workers = options.nproc > 2 ? options.nproc - 2 : 1;
  std::size_t total = 0;
  for (const auto& o : in.offsets_ns) total += o.size();
  // Requests per tail window at each rate.
  std::vector<std::size_t> window;
  for (const double rate : shape.rates) {
    window.push_back(static_cast<std::size_t>(rate * kWindowS));
  }

  Samples e2e;
  Samples layers;
  RunTimes runs;
  std::vector<std::vector<double>> latency_by_rate(rates);
  std::vector<std::vector<double>> window_tails(rates);
  std::vector<bool> rate_ok(rates, true);
  std::vector<double> late_p50_us;
  gsight::obs::MemoryTraceSink trace_sink;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Repetitions reps(options, options.trace ? 2 : (options.tiny ? 1 : 2));
  while (reps.next()) {
    const bool traced = reps.traced();
    Spans spans(traced);

    // --- Set-up: warm fit of the deployed IRFR, then service start ---------
    const std::uint64_t setup_start = now_ns();
    // One fit thread: the parallel fit's speed-up depends on the binary's
    // layout (3.0x in one build, 1.0x in another that differed only in
    // unrelated code), which would make set-up time jump between commits.
    ml::IncrementalForestConfig forest = core::deployed_irfr_config();
    forest.forest.threads = 1;
    ml::IncrementalForest model(forest, options.seed);
    {
      const Scope scope(spans, "ml.warm_fit");
      model.partial_fit(in.warm);
    }
    const double warm_fit_s = seconds_between(setup_start, now_ns());
    // The kept copy and its answers are the reference of the output
    // check; making them is not set-up.
    const ml::IncrementalForest kept = model;
    // Declared before the service, so no callback can outlive its record.
    const std::unique_ptr<Record[]> records(new Record[total]);
    const std::uint64_t service_start = now_ns();
    std::int64_t span = spans.open("serve.start");
    serve::ServiceConfig sc;
    sc.feature_dim = shape.dim;
    sc.queue_capacity = 1 << 16;
    sc.max_batch = 32;
    sc.worker_threads = workers;
    sc.train_batch = 64;
    serve::PredictionService service(sc, std::move(model));
    service.start();
    spans.close(span);
    const double setup_s = warm_fit_s + seconds_between(service_start, now_ns());
    std::vector<double> expected;
    expected.reserve(in.pool.size());
    for (const auto& row : in.pool) expected.push_back(kept.predict(row));
    const serve::ServiceStats before = service.stats();

    // --- Timed phase: one open-loop phase per swept rate, top rate last ----
    std::vector<double> late_us;
    late_us.reserve(total);
    const std::uint64_t run_start = now_ns();
    std::size_t first = 0;
    for (std::size_t r = 0; r < rates; ++r) {
      span = spans.open("serve.phase");
      const PhaseResult phase = run_phase(service, in, r, r + 1 == rates,
                                          &records[first], late_us);
      spans.close(span);
      const std::vector<double> tails = block_tails(phase.latency_us, window[r]);
      window_tails[r].insert(window_tails[r].end(), tails.begin(), tails.end());
      latency_by_rate[r].insert(latency_by_rate[r].end(), phase.latency_us.begin(),
                                phase.latency_us.end());
      const double allowed_backlog = shape.rates[r] * kTailLimitUs * 1e-6;
      if (phase.shed > 0 || static_cast<double>(phase.backlog_at_end) > allowed_backlog) {
        rate_ok[r] = false;
      }
      late_p50_us.push_back(phase.late_p50_us);
      for (std::size_t k = first; traced && k < first + in.rows[r].size(); k += kTraceEvery) {
        if (!records[k].accepted) continue;
        Span request;
        request.name = "serve.request";
        request.start_ns = records[k].due_ns;
        request.end_ns = records[k].done_ns;
        request.parent = span;
        request.request = k + 1;
        spans.add(request);
      }
      first += in.rows[r].size();
    }
    const double run_s = seconds_between(run_start, now_ns());
    const serve::ServiceStats after_run = service.stats();
    service.stop();
    const serve::ServiceStats stats = service.stats();
    for (std::size_t b = 0; b < (options.tiny ? 2 : kBursts); ++b) {
      e2e.add("capacity_rps",
              drain_rate(sc, kept, in, options.tiny ? 256 : kBurst, expected,
                         report),
              "1/s");
    }

    // --- Output checks ------------------------------------------------------
    std::size_t completed = 0;
    std::size_t shed = 0;
    std::size_t fired_once = 0;
    std::size_t checked = 0;
    std::size_t mismatched = 0;
    double ape_sum = 0.0;
    std::size_t ape_count = 0;
    std::vector<double> service_us;
    service_us.reserve(total);
    std::size_t k = 0;
    for (std::size_t r = 0; r < rates; ++r) {
      for (const std::uint32_t row : in.rows[r]) {
        const Record& rec = records[k++];
        const std::uint32_t fired = rec.fired.load(std::memory_order_acquire);
        if (!rec.accepted) {
          ++shed;
          fired_once += fired == 0 ? 1 : 0;
          continue;
        }
        ++completed;
        fired_once += fired == 1 ? 1 : 0;
        service_us.push_back(static_cast<double>(rec.service_ns) * 1e-3);
        if (rec.version == kept.version()) {
          ++checked;
          mismatched += rec.value == expected[row] ? 0 : 1;
        }
        if (rec.observed && in.labels[row] != 0.0) {
          ape_sum += std::abs(rec.value - in.labels[row]) / std::abs(in.labels[row]);
          ++ape_count;
        }
      }
    }
    report.check(completed + shed == total && stats.accepted == completed &&
                     stats.shed == shed,
                 "serve_open conservation: submitted " + std::to_string(total) +
                     " != completed " + std::to_string(completed) + " + shed " +
                     std::to_string(shed));
    report.check(fired_once == total,
                 "serve_open: " + std::to_string(total - fired_once) +
                     " callbacks did not fire exactly once");
    report.check(checked > 0 && mismatched == 0,
                 "serve_open: " + std::to_string(mismatched) + " of " +
                     std::to_string(checked) +
                     " warm-model responses differ from the kept model");
    attempted += total;
    failed += shed;

    e2e.add("setup_s", setup_s, "s");
    e2e.add("ok_frac", static_cast<double>(completed) / static_cast<double>(total),
            "frac");
    e2e.add("online_mape",
            ape_count > 0 ? ape_sum / static_cast<double>(ape_count) : 0.0, "frac");
    runs.add(traced, run_s);
    if (!traced) continue;

    layers.add("ml.warm_fit_s", warm_fit_s, "s");
    layers.add("ml.updates", static_cast<double>(stats.train_rounds), "count");
    layers.add("ml.predict_calls", static_cast<double>(stats.batches), "count");
    layers.add("ml.predict_rows", static_cast<double>(stats.predicted), "count");
    layers.add("serve.batches", static_cast<double>(stats.batches), "count");
    layers.add("serve.mean_batch",
               stats.batches > 0 ? static_cast<double>(stats.predicted) /
                                       static_cast<double>(stats.batches)
                                 : 0.0,
               "count");
    layers.add("serve.train_rounds", static_cast<double>(stats.train_rounds), "count");
    layers.add("serve.hot_swaps",
               static_cast<double>(after_run.snapshot_swaps - before.snapshot_swaps),
               "count");
    layers.add("serve.shed", static_cast<double>(stats.shed), "count");
    layers.add("serve.observations_shed",
               static_cast<double>(stats.observations_shed), "count");
    layers.add("serve.service_p50_us", median(service_us), "us");
    layers.add("serve.gen_late_p50_us", median(late_us), "us");
    layers.add("serve.gen_late_max_us",
               *std::max_element(late_us.begin(), late_us.end()), "us");
    if (trace_sink.size() == 0) spans.export_to(trace_sink, setup_start);
  }

  // --- Rates: robust tails, the highest rate that meets the limit ----------
  double max_ok_rate = 0.0;
  std::vector<Quantiles> by_rate;
  for (std::size_t r = 0; r < rates; ++r) {
    // Tail: the median over windows of each window's tail.
    Quantiles q = quantiles(latency_by_rate[r]);
    q.tail = median(window_tails[r]);
    q.tail_pct = tail_percentile(window[r]);
    if (rate_ok[r] && q.tail <= kTailLimitUs) max_ok_rate = shape.rates[r];
    const std::string key = "rate." + std::to_string(static_cast<long>(shape.rates[r]));
    report.info(key + ".p50_us", q.p50);
    report.info(key + ".tail_us", q.tail);
    report.info(key + ".samples", static_cast<double>(q.n));
    report.info(key + ".windows", static_cast<double>(window_tails[r].size()));
    report.info(key + ".ok", rate_ok[r] && q.tail <= kTailLimitUs ? "yes" : "no");
    by_rate.push_back(q);
  }
  // Host-time tails swing with the host's own noise far more than any
  // bound could absorb, so they are per-layer facts, not gated metrics.
  report.layer("serve.tail_us.low", by_rate[0].tail, "us");
  report.layer("serve.tail_us.high", by_rate[1].tail, "us");
  report.layer("serve.tail_us.top", by_rate[2].tail, "us");
  report.layer("serve.p50_us.high", by_rate[1].p50, "us");
  report.layer("serve.p50_us.top", by_rate[2].p50, "us");
  report.layer("serve.max_ok_rate_rps", max_ok_rate, "1/s");
  // A generator that fell behind offered less load than scheduled: the
  // outputs are still right, but the run's latencies are not comparable.
  const double generator_late_us =
      *std::max_element(late_p50_us.begin(), late_p50_us.end());
  report.info("generator_late_p50_us.worst_phase", generator_late_us);
  report.info("run_valid", generator_late_us <= kMaxGeneratorLateUs
                               ? "yes"
                               : "no: the generator fell behind");

  report.end_to_end_medians(e2e);
  runs.report_to(report, options.trace);
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  report.end_to_end("density", kNotApplicable, "inst/core");
  report.end_to_end("sla_met_frac", kNotApplicable, "frac");
  report_latency(report, by_rate[0], by_rate[1]);
  report.operations(attempted, failed);
  report.info("threads.generator", 1.0);
  report.info("threads.workers", static_cast<double>(workers));
  report.info("threads.trainer", 1.0);
  report.info("threads.warm_fit", 1.0);
  report.info("threads.refresh_pool",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.info("tail_limit_us", kTailLimitUs);
  report.info("tail_window_s", kWindowS);

  if (options.trace) {
    report.layer_medians(layers);
    write_trace(options, trace_sink, report);
  }
}

}  // namespace perfbench

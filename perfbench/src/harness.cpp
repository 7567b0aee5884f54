#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return end_ns > start_ns ? static_cast<double>(end_ns - start_ns) * 1e-9
                           : 0.0;
}

Quantiles quantiles(std::vector<double> xs) {
  Quantiles q;
  q.n = xs.size();
  if (xs.empty()) return q;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  q.p50 = n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  // Highest order statistic with at least 10 samples above it.
  q.tail = xs[n > 10 ? n - 11 : n - 1];
  q.tail_pct = tail_percentile(n);
  return q;
}

double median(std::vector<double> xs) { return quantiles(std::move(xs)).p50; }

double tail_percentile(std::size_t n) {
  if (n == 0) return 0.0;
  return 100.0 * static_cast<double>(n > 10 ? n - 10 : n) /
         static_cast<double>(n);
}

std::vector<double> block_tails(const std::vector<double>& xs,
                                std::size_t block) {
  std::vector<double> tails;
  block = std::max<std::size_t>(1, block);
  for (std::size_t b = 0; b < xs.size(); b += block) {
    const auto first = xs.begin() + static_cast<std::ptrdiff_t>(b);
    const auto last =
        xs.begin() + static_cast<std::ptrdiff_t>(std::min(xs.size(), b + block));
    tails.push_back(quantiles(std::vector<double>(first, last)).tail);
  }
  return tails;
}

// --- Spans -------------------------------------------------------------------

std::int64_t Spans::open(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Spans::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes close in LIFO order, so the span is the innermost open one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Spans::add(const Span& span) {
  if (enabled_) spans_.push_back(span);
}

std::size_t Spans::count(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return name == s.name; }));
}

double Spans::total_s(std::string_view name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (name == s.name) total += seconds_between(s.start_ns, s.end_ns);
  }
  return total;
}

double Spans::self_s(std::string_view name) const {
  // Children of a span are contiguous after it and nest strictly, so the
  // direct children's durations never overlap each other.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start_ns, s.end_ns);
    }
  }
  double self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      self += seconds_between(spans_[i].start_ns, spans_[i].end_ns) -
              child_s[i];
    }
  }
  return self;
}

std::vector<double> Spans::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back(seconds_between(s.start_ns, s.end_ns) * 1e6);
  }
  return out;
}

void Spans::export_to(gsight::obs::MemoryTraceSink& sink,
                      std::uint64_t origin_ns) const {
  using gsight::obs::TraceEvent;
  // The lane after the simulator's platform and request lanes.
  constexpr std::uint64_t kBenchmarkLane = gsight::obs::Lanes::kRequests + 1;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    TraceEvent e;
    e.name = s.name;
    e.cat = "perfbench";
    e.pid = kBenchmarkLane;
    e.ts_s = seconds_between(origin_ns, s.start_ns);
    if (s.request != 0) {
      e.kind = TraceEvent::Kind::kAsyncBegin;
      e.id = s.request;
      sink.on_event(e);
      e.kind = TraceEvent::Kind::kAsyncEnd;
      e.ts_s = seconds_between(origin_ns, s.end_ns);
      sink.on_event(e);
      continue;
    }
    e.kind = TraceEvent::Kind::kComplete;
    e.dur_s = seconds_between(s.start_ns, s.end_ns);
    e.args = {{"span", std::to_string(i)}, {"parent", std::to_string(s.parent)}};
    sink.on_event(e);
  }
}

// --- Repetitions -------------------------------------------------------------

Repetitions::Repetitions(const Options& options, std::size_t min_reps)
    : seconds_(options.seconds),
      trace_(options.trace),
      min_reps_(std::max<std::size_t>(1, min_reps)),
      start_ns_(now_ns()),
      last_start_ns_(start_ns_) {}

bool Repetitions::next() {
  const std::uint64_t now = now_ns();
  if (started_) {
    const double elapsed = seconds_between(start_ns_, now);
    const double last = seconds_between(last_start_ns_, now);
    if (index_ + 1 >= min_reps_ && elapsed + last > seconds_) return false;
    ++index_;
  }
  started_ = true;
  last_start_ns_ = now;
  return true;
}

void RunTimes::add(bool traced, double seconds) {
  (traced ? traced_ : untraced_).push_back(seconds);
}

void RunTimes::report_to(Report& report, bool traced_run) const {
  std::vector<double> all = untraced_;
  all.insert(all.end(), traced_.begin(), traced_.end());
  report.end_to_end("run_s", median(all), "s");
  report.info("repetitions", static_cast<double>(all.size()));
  if (traced_run && !traced_.empty() && !untraced_.empty()) {
    report.layer("trace.overhead_s", median(traced_) - median(untraced_), "s");
  }
}

// --- Samples and report ------------------------------------------------------

void Samples::add(const std::string& name, double value,
                  const std::string& unit) {
  auto& slot = values_[name];
  slot.first = unit;
  slot.second.push_back(value);
}

void Report::put(std::vector<Metric>& list, const std::string& name,
                 double value, const std::string& unit) {
  for (auto& m : list) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list.push_back({name, value, unit});
}

void Report::end_to_end(const std::string& name, double value,
                        const std::string& unit) {
  put(e2e_, name, value, unit);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  put(layer_, name, value, unit);
}

void Report::end_to_end_medians(const Samples& samples) {
  for (const auto& [name, slot] : samples.values_) {
    end_to_end(name, median(slot.second), slot.first);
  }
}

void Report::layer_medians(const Samples& samples) {
  for (const auto& [name, slot] : samples.values_) {
    layer(name, median(slot.second), slot.first);
  }
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, gsight::obs::json_number(value));
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed) {
  check(attempted > 0, "the run attempted no operation");
  attempted_ = attempted;
  failed_ = failed;
}

void Report::print(bool traced) const {
  for (const auto& [key, value] : info_) {
    std::printf("info   %-28s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& m : e2e_) {
    std::printf("e2e    %-28s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& m : layer_) {
    std::printf("layer  %-28s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  gsight::obs::Json metrics = gsight::obs::Json::object();
  for (const auto& m : traced ? layer_ : e2e_) {
    gsight::obs::Json entry = gsight::obs::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  gsight::obs::Json out = gsight::obs::Json::object();
  out.set("correct", correct());
  out.set("attempted", attempted_);
  out.set("failed", failed_);
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump_string(0).c_str());
  std::fflush(stdout);
}

// --- Host --------------------------------------------------------------------

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void tag_host(const Options& options, Report& report) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  report.info("workload", options.workload);
  report.info("size", options.tiny ? "tiny" : "full");
  report.info("seed", std::to_string(options.seed));
  report.info("cpu_model", model);
  report.info("nproc", static_cast<double>(options.nproc));
  report.info("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
}

// --- Output artifacts --------------------------------------------------------

std::string fnv1a_hex(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void check_digest_across_runs(const Options& options, const std::string& digest,
                              Report& report) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(options.out_dir) / "digests";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path file =
      dir / (options.workload + (options.tiny ? "-tiny-" : "-full-") +
             std::to_string(options.seed) + ".txt");
  std::string previous;
  if (std::ifstream in(file); in) std::getline(in, previous);
  if (!previous.empty()) {
    report.check(previous == digest,
                 "output digest " + digest + " differs from " + previous +
                     " recorded by an earlier run with the same seed");
  } else {
    std::ofstream(file) << digest << '\n';
  }
  report.info("digest", digest);
}

void write_trace(const Options& options,
                 const gsight::obs::MemoryTraceSink& sink, Report& report) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(options.out_dir) / "traces";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path file =
      dir / (options.workload + "-" + std::to_string(options.seed) + ".json");
  std::ofstream out(file);
  sink.write_chrome_trace(out);
  out.close();
  report.check(static_cast<bool>(out), "cannot write trace " + file.string());
  report.info("trace_file", file.string());
  report.info("trace_spans", static_cast<double>(sink.size()));
}

}  // namespace perfbench

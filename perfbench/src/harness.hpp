// Shared plumbing of the repository benchmark: command-line options, wall
// clocks, quantiles, the span recorder that times each layer from outside,
// and the report that prints every metric and the final JSON line.
//
// Everything here lives outside src/ on purpose: the library keeps its
// no-wall-clock rule, and the benchmark measures it by wrapping calls into
// each layer's public functions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gsight::obs {
class MemoryTraceSink;
}  // namespace gsight::obs

namespace perfbench {

class Report;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrink the workload to a smoke-test size (seconds, not minutes); the
  /// metric set and the output checks stay the same.
  bool tiny = false;
  /// Traces and the digest cache land under this directory.
  std::string out_dir = ".bench_build/out";
  /// CPUs this process may run on; every pool is sized at or below it.
  std::size_t nproc = 1;
};

std::uint64_t now_ns();
double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// Median and tail of a sample. The tail is the highest order statistic
/// with at least 10 samples above it (the maximum below 11 samples);
/// `tail_pct` says which percentile that is for this sample size.
struct Quantiles {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
};
Quantiles quantiles(std::vector<double> xs);
double median(std::vector<double> xs);
/// Percentile of the tail order statistic in a sample of n.
double tail_percentile(std::size_t n);
/// The tail of each consecutive block of `block` samples. Reporting the
/// median block tail keeps a host stall that hits one block from moving
/// the whole run.
std::vector<double> block_tails(const std::vector<double>& xs,
                                std::size_t block);

/// One timed call into a layer: name, start, end, the enclosing span and
/// the request it served (0 = none).
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder for the calling thread. Disabled recorders
/// cost one branch per call; spans are exported once, after the run.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Open a span nested in the innermost open one; returns its index
  /// (-1 when disabled).
  std::int64_t open(const char* name, std::uint64_t request = 0);
  void close(std::int64_t index);
  /// Record a finished span measured elsewhere (e.g. a served request).
  void add(const Span& span);

  std::size_t count(std::string_view name) const;
  double total_s(std::string_view name) const;
  /// Duration of the named spans minus the part their child spans cover.
  double self_s(std::string_view name) const;
  std::vector<double> durations_us(std::string_view name) const;

  /// Append every span to `sink` as Chrome trace events, timestamps
  /// relative to `origin_ns`. Spans with a request id become async
  /// begin/end pairs keyed by it; the rest are complete events carrying
  /// their span index and parent index.
  void export_to(gsight::obs::MemoryTraceSink& sink,
                 std::uint64_t origin_ns) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Spans& spans, const char* name, std::uint64_t request = 0)
      : spans_(spans), index_(spans.open(name, request)) {}
  ~Scope() { spans_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  std::int64_t index_;
};

/// The repetitions of one run: at least `min_reps`, then more while
/// another one (as long as the last) still fits in options.seconds. A
/// traced run alternates traced and untraced repetitions (every
/// repetition uses the same inputs), so the difference of their medians
/// is the tracing overhead.
class Repetitions {
 public:
  Repetitions(const Options& options, std::size_t min_reps);

  /// Start the next repetition; false when the run's time is used up.
  bool next();
  std::size_t index() const { return index_; }
  bool traced() const { return trace_ && index_ % 2 == 0; }

 private:
  double seconds_;
  bool trace_;
  std::size_t min_reps_;
  std::size_t index_ = 0;
  bool started_ = false;
  std::uint64_t start_ns_;
  std::uint64_t last_start_ns_;
};

/// run_s of each repetition, split by whether it was traced.
class RunTimes {
 public:
  void add(bool traced, double seconds);
  /// run_s (the median over every repetition) and the repetition count;
  /// for a traced run also trace.overhead_s, the median traced run_s
  /// minus the median untraced one.
  void report_to(Report& report, bool traced_run) const;

 private:
  std::vector<double> traced_;
  std::vector<double> untraced_;
};

/// Values of each metric across repetitions; reported as medians.
class Samples {
 public:
  void add(const std::string& name, double value, const std::string& unit);

 private:
  friend class Report;
  std::map<std::string, std::pair<std::string, std::vector<double>>> values_;
};

/// Everything one run prints. The last stdout line is the JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// for an untraced run, the per-layer metrics for a traced one.
class Report {
 public:
  void end_to_end(const std::string& name, double value,
                  const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// Medians of every metric in `samples` (as end-to-end or per-layer).
  void end_to_end_medians(const Samples& samples);
  void layer_medians(const Samples& samples);
  /// Free-form run facts (host tag, thread counts, sample counts).
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// An output check: a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  void operations(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return failures_.empty(); }
  /// Human-readable table of every metric, then the final JSON line.
  void print(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  static void put(std::vector<Metric>& list, const std::string& name,
                  double value, const std::string& unit);

  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host tag recorded in every run: CPU model, nproc, hardware threads,
/// seed, workload.
void tag_host(const Options& options, Report& report);
/// Peak resident set size of this process so far (VmHWM), in MB.
double peak_rss_mb();
/// CPUs in this process's affinity mask (what `nproc` prints).
std::size_t affinity_cpus();

/// Compare `digest` with the one an earlier run of the same workload, size
/// and seed left in the checkout (out_dir/digests), then record it. A
/// mismatch fails the run: same inputs must give the same outputs, traced
/// or not.
void check_digest_across_runs(const Options& options, const std::string& digest,
                              Report& report);

/// FNV-1a 64 of a text, as 16 hex digits.
std::string fnv1a_hex(std::string_view text);

/// Write `sink` as a Chrome trace to out_dir/traces/<workload>-<seed>.json
/// and record the path.
void write_trace(const Options& options,
                 const gsight::obs::MemoryTraceSink& sink, Report& report);

}  // namespace perfbench

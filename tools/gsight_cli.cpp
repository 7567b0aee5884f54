// gsight — command-line front end for the library's main workflows.
//
//   gsight list                         workloads in the built-in suite
//   gsight profile <app> [qps] [out]    solo-profile an app (optionally save)
//   gsight train <store> <model-out>    build a training stream from the
//                                       suite and fit + persist an IRFR
//   gsight predict <store> <model> <target> <corunner> <same|apart>
//                                       what-if: predict target IPC with the
//                                       corunner colocated or isolated
//   gsight campaign [options]           deterministic parallel scenario
//                                       campaign (see --help below); the
//                                       sample stream is bit-identical for
//                                       any --threads value
//   gsight serve-bench [options]        drive the online prediction service
//                                       (micro-batching + hot swap) under
//                                       synthetic load; emits
//                                       BENCH_serve.json. --threads 0 runs
//                                       the deterministic synchronous twin.
//                                       --fleet N drives a routed
//                                       PredictionFleet instead (emits
//                                       BENCH_serve_fleet.json) and --live
//                                       streams gsight-live/v1 NDJSON
//   gsight clone-bench [options]        sweep clone factor x interference
//                                       intensity x service discipline and
//                                       emit the latency-vs-cloning frontier
//                                       (BENCH_cloning_frontier.json)
//   gsight tail <file> [--follow]       pretty-print a gsight-live/v1
//                                       NDJSON stream (the --live output)
//   gsight demo                         30-second end-to-end tour
//
// Everything runs on the simulator; profiles/models persist via the text
// formats in profiling/profile_io.hpp and ml/forest_io.hpp. GSIGHT_THREADS
// caps campaign fan-out when --threads is not given (0/unset = hardware).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/parse_double.hpp"
#include "core/parse_uint.hpp"
#include "core/predictor.hpp"
#include "core/trainer.hpp"
#include "ml/forest_io.hpp"
#include "obs/live_stream.hpp"
#include "obs/run_report.hpp"
#include "profiling/profile_io.hpp"
#include "sched/cloning_frontier.hpp"
#include "serve/fleet.hpp"
#include "serve/load_driver.hpp"
#include "serve/service.hpp"
#include "sim/sharded_engine.hpp"
#include "stats/summary.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace gsight;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  gsight list\n"
               "  gsight profile <app> [qps] [store-out]\n"
               "  gsight train <store-in> <model-out> [scenarios]\n"
               "  gsight predict <store-in> <model-in> <target-key> "
               "<corunner-key> <same|apart>\n"
               "  gsight campaign [--threads N] [--seed S] [--count N]\n"
               "                  [--qos ipc|lat|jct] [--cls ls+ls|ls+sc|sc+sc]\n"
               "                  [--dump FILE]\n"
               "  gsight campaign --shards N [--clusters C] [--servers S]\n"
               "                  [--horizon T] [--threads N] [--seed S]\n"
               "                  [--remote F] [--clone-factor D]\n"
               "                  [--clone-handoffs] [--ps] [--dump FILE]\n"
               "                  (sharded simulation; the digest is\n"
               "                  bit-identical for any --shards and\n"
               "                  --threads, clones and cancellations\n"
               "                  included)\n"
               "  gsight clone-bench [--factors 1,2,3] [--levels 0,3]\n"
               "                  [--reps N] [--servers S] [--qps HZ]\n"
               "                  [--duration T] [--sync] [--threads N]\n"
               "                  [--seed S] [--out DIR]\n"
               "                  (latency-vs-cloning frontier ->\n"
               "                  BENCH_cloning_frontier.json)\n"
               "  gsight serve-bench [--threads N] [--requests N] [--rate HZ]\n"
               "                  [--dim D] [--batch N] [--linger-us U]\n"
               "                  [--queue N] [--warm N] [--observe-every N]\n"
               "                  [--mode open|closed] [--clients N]\n"
               "                  [--seed S] [--out DIR]\n"
               "  gsight serve-bench --fleet N [--router hash|least]\n"
               "                  [--vnodes N] [--drain R@D[:A]]...\n"
               "                  [--live FILE] [--live-every N]\n"
               "                  (+ the single-service flags above; drains\n"
               "                  a replica before request D, re-adds it\n"
               "                  before request A)\n"
               "  gsight tail <file> [--follow]\n"
               "  gsight demo\n");
  return 2;
}

/// Parse `value`, the value of flag or variable `name`, with
/// core::parse_uint into `*out`. On a bad value, say so and return false;
/// the caller then returns usage().
template <typename T>
bool count_arg(const std::string& name, std::string_view value, T* out,
               std::uint64_t max = std::numeric_limits<T>::max()) {
  const auto parsed = core::parse_uint(value, max);
  if (!parsed) {
    std::fprintf(stderr,
                 "error: %s wants an unsigned integer up to %llu, got '%.*s'\n",
                 name.c_str(), static_cast<unsigned long long>(max),
                 static_cast<int>(value.size()), value.data());
    return false;
  }
  *out = static_cast<T>(*parsed);
  return true;
}

/// Parse `value`, the value of flag `name`, with core::parse_double into
/// `*out`, accepting [min, max]; `what` names that range for the error.
/// On a bad value, say so and return false; the caller then returns
/// usage().
bool real_arg(const std::string& name, std::string_view value, double* out,
              double min, double max, const char* what) {
  const auto parsed = core::parse_double(value, min, max);
  if (!parsed) {
    std::fprintf(stderr, "error: %s wants %s, got '%.*s'\n", name.c_str(),
                 what, static_cast<int>(value.size()), value.data());
    return false;
  }
  *out = *parsed;
  return true;
}

/// real_arg for a rate, a duration or a horizon: finite and > 0.
bool positive_arg(const std::string& name, std::string_view value,
                  double* out) {
  return real_arg(name, value, out, core::kLeastPositive,
                  std::numeric_limits<double>::max(), "a positive number");
}

/// count_arg for a thread, worker, client or replica count.
bool threads_arg(const std::string& name, std::string_view value,
                 std::size_t* out) {
  return count_arg(name, value, out, core::kMaxThreads);
}

/// Parse a comma-separated list of counts ("1,2,3") into `*out`.
bool count_list_arg(const std::string& name, std::string_view value,
                    std::vector<std::size_t>* out) {
  out->clear();
  for (std::size_t start = 0, comma = 0; comma != value.npos;
       start = comma + 1) {
    comma = value.find(',', start);
    const auto item = value.substr(start, comma - start);
    if (!count_arg(name, item, &out->emplace_back())) return false;
  }
  return true;
}

/// Campaign fan-out from GSIGHT_THREADS (0/unset = all hardware threads).
/// False when the variable is set to anything but a thread count.
bool env_threads(std::size_t* threads) {
  *threads = 0;
  const char* v = std::getenv("GSIGHT_THREADS");
  return v == nullptr || threads_arg("GSIGHT_THREADS", v, threads);
}

prof::SoloProfilerConfig profiler_config() {
  prof::SoloProfilerConfig cfg;
  cfg.server = sim::ServerConfig::socket();
  cfg.ls_profile_s = 25.0;
  return cfg;
}

int cmd_list() {
  std::printf("%-24s %-4s %10s %12s\n", "name", "cls", "functions",
              "solo(s)");
  for (const auto& app : wl::full_suite()) {
    std::printf("%-24s %-4s %10zu %12.3f\n", app.name.c_str(),
                wl::to_string(app.cls).c_str(), app.function_count(),
                app.total_solo_s());
  }
  return 0;
}

int cmd_profile(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string name = argv[0];
  double qps = 0.0;
  if (argc >= 2 && !real_arg("qps", argv[1], &qps, 0.0,
                             std::numeric_limits<double>::max(),
                             "a non-negative number")) {
    return usage();
  }
  const auto app = wl::by_name(name);
  prof::ProfileStore store;
  const auto key = core::ensure_profile(store, app, qps, profiler_config());
  const auto& profile = store.get(key);
  std::printf("profiled %s: %zu functions", key.c_str(),
              profile.functions.size());
  if (app.cls == wl::WorkloadClass::kLatencySensitive) {
    std::printf(", solo p99 %.2f ms, mean IPC %.3f\n",
                profile.solo_e2e_p99_s * 1e3, profile.solo_mean_ipc);
  } else {
    std::printf(", solo JCT %.1f s\n", profile.solo_jct_s);
  }
  for (const auto& fn : profile.functions) {
    std::printf("  %-24s solo %.4gs  ipc %.3f  %.1f cores\n",
                fn.fn_name.c_str(), fn.solo_duration_s, fn.solo_ipc,
                fn.demand.cores);
  }
  if (argc >= 3) {
    prof::save_store(store, argv[2]);
    std::printf("store written to %s\n", argv[2]);
  }
  return 0;
}

int cmd_train(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string store_path = argv[0];
  const std::string model_path = argv[1];
  std::size_t scenarios = 120;
  if (argc >= 3 && !count_arg("scenarios", argv[2], &scenarios)) {
    return usage();
  }

  prof::ProfileStore store;
  core::BuilderConfig cfg;
  cfg.runner.servers = 8;
  cfg.runner.server = sim::ServerConfig::socket();
  cfg.encoder.servers = 8;
  cfg.profiler = profiler_config();
  core::DatasetBuilder builder(&store, cfg, /*seed=*/2026);
  std::printf("building %zu LS+SC/BG scenarios (profiles on demand)...\n",
              scenarios);
  core::BuildRequest request;
  request.cls = core::ColocationClass::kLsScBg;
  request.qos = core::QosKind::kIpc;
  request.count = scenarios;
  if (!env_threads(&request.campaign.threads)) return usage();
  const auto stream = builder.build(request);

  ml::IncrementalForest model(core::deployed_irfr_config(), 1);
  ml::Dataset train(builder.encoder().dimension());
  for (const auto& s : stream) {
    for (double l : s.labels) train.add(s.features, l);
  }
  model.partial_fit(train);
  std::printf("trained IRFR on %zu samples from %zu scenarios\n",
              train.size(), stream.size());

  prof::save_store(store, store_path);
  ml::save_incremental_forest(model, model_path);
  std::printf("store -> %s\nmodel -> %s\n", store_path.c_str(),
              model_path.c_str());
  return 0;
}

int cmd_predict(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto store = prof::load_store(argv[0]);
  auto model = ml::load_incremental_forest(argv[1]);
  const auto& target = store.get(argv[2]);
  const auto& corunner = store.get(argv[3]);
  const bool same = argc >= 5 && std::strcmp(argv[4], "apart") != 0;

  core::EncoderConfig ec;
  ec.servers = 8;
  const core::Encoder encoder(ec);
  core::Scenario scenario;
  scenario.servers = 8;
  core::WorkloadDeployment t;
  t.profile = &target;
  for (std::size_t i = 0; i < target.functions.size(); ++i) {
    t.fn_to_server.push_back(i % 4);  // spread over the first 4 sockets
  }
  core::WorkloadDeployment c;
  c.profile = &corunner;
  c.fn_to_server.assign(corunner.functions.size(), same ? 0 : 7);
  c.lifetime_s = corunner.solo_jct_s;
  scenario.workloads = {t, c};

  const double ipc = model.predict(encoder.encode(scenario));
  std::printf("predicted IPC of %s with %s %s: %.3f (solo %.3f)\n", argv[2],
              argv[3], same ? "colocated" : "isolated", ipc,
              target.solo_mean_ipc);
  return 0;
}

int cmd_demo() {
  std::printf("== gsight demo: profile -> observe -> predict ==\n");
  prof::ProfileStore store;
  core::BuilderConfig cfg;
  cfg.runner.servers = 4;
  cfg.encoder.servers = 4;
  cfg.encoder.max_workloads = 4;
  cfg.runner.server = sim::ServerConfig::socket();
  cfg.profiler = profiler_config();
  cfg.profiler.ls_profile_s = 15.0;
  cfg.ls_qps_levels = {40.0};
  core::DatasetBuilder builder(&store, cfg, 7);

  core::PredictorConfig pc;
  pc.encoder = cfg.encoder;
  core::GsightPredictor predictor(pc);
  core::BuildRequest request;
  request.cls = core::ColocationClass::kLsScBg;
  request.qos = core::QosKind::kIpc;
  request.count = 30;
  if (!env_threads(&request.campaign.threads)) return usage();
  const auto stream = builder.build(request);
  ml::Dataset train(predictor.encoder().dimension());
  for (const auto& s : stream) {
    for (double l : s.labels) train.add(s.features, l);
  }
  predictor.train(train);
  std::printf("trained on %zu samples (%zu scenarios)\n", train.size(),
              stream.size());
  // Prequential check on a few fresh scenarios.
  request.count = 6;
  const auto fresh = builder.build(request);
  for (const auto& s : fresh) {
    const double truth = stats::mean(s.labels);
    const double pred = predictor.predict(s.outcome.scenario);
    std::printf("  %-18s measured IPC %.3f predicted %.3f (%.1f%% error)\n",
                s.outcome.scenario.workloads[0].profile->app_name.c_str(),
                truth, pred, 100.0 * std::abs(pred - truth) / truth);
  }
  return 0;
}

/// Byte-stable hexfloat dump of a campaign's sample stream. check.sh
/// compares dumps across thread counts: equal files prove the parallel
/// fan-out is bit-identical to the serial run.
bool dump_samples(const std::vector<core::ScenarioSamples>& samples,
                  const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "gsight-campaign-dump/v1 samples=%zu\n", samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    std::fprintf(f, "scenario %zu features=%zu labels=%zu\n", i,
                 s.features.size(), s.labels.size());
    for (double v : s.features) std::fprintf(f, "f %a\n", v);
    for (double v : s.labels) std::fprintf(f, "l %a\n", v);
    std::fprintf(f, "o %a %a %a %d\n", s.outcome.mean_ipc,
                 s.outcome.p99_latency_s, s.outcome.jct_s,
                 s.outcome.completed ? 1 : 0);
    for (double v : s.outcome.window_ipc) std::fprintf(f, "wi %a\n", v);
    for (double v : s.outcome.window_p99) std::fprintf(f, "wp %a\n", v);
    for (const auto& [ipc, p99] : s.outcome.window_ipc_p99) {
      std::fprintf(f, "wx %a %a\n", ipc, p99);
    }
  }
  std::fclose(f);
  return true;
}

/// Sharded-simulation mode of `gsight campaign` (--shards): advance a
/// multi-cell estate under the synthetic diurnal trace and report the
/// aggregate event rate. The state digest written by --dump is
/// byte-identical for any lane count and any thread count — check.sh's
/// shard-equivalence stage compares those dumps the same way the dataset
/// campaign compares sample streams.
struct ShardedCloneOptions {
  std::size_t clone_factor = 1;
  bool clone_handoffs = false;
  double remote_fraction = -1.0;  ///< < 0 keeps the config default
  bool processor_sharing = false;
};

int cmd_campaign_sharded(std::size_t lanes, std::size_t threads,
                         std::uint64_t seed, std::size_t clusters,
                         std::size_t servers, double horizon,
                         const std::string& dump_path,
                         const ShardedCloneOptions& clone) {
  sim::ShardedEngineConfig cfg;
  cfg.servers = servers;
  cfg.server = sim::ServerConfig::socket();
  if (clone.processor_sharing) {
    cfg.server.discipline = sim::ServiceDiscipline::kProcessorSharing;
  }
  cfg.seed = seed;
  cfg.topology.clusters = clusters;
  cfg.topology.shards = lanes;
  cfg.threads = threads == 0 ? 1 : threads;
  cfg.trace.base_qps = 40.0;
  cfg.gateway.clone.factor = clone.clone_factor;
  cfg.clone_handoffs = clone.clone_handoffs;
  if (clone.remote_fraction >= 0.0) {
    cfg.remote_fraction = clone.remote_fraction;
  }
  sim::ShardedEngine engine(cfg);
  engine.deploy_default_load();
  std::printf("sharded campaign: %zu cells x %zu servers, %zu lanes, "
              "%zu threads, seed %llu, horizon %.0fs\n",
              engine.shard_count(), servers, engine.lanes(), cfg.threads,
              static_cast<unsigned long long>(seed), horizon);
  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(horizon);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto events = engine.events_executed();
  std::printf("ran %llu epochs, %llu events, %llu cross-cell messages "
              "(%.0f events/s wall)\n",
              static_cast<unsigned long long>(engine.epochs_run()),
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(engine.messages_exchanged()),
              wall > 0.0 ? static_cast<double>(events) / wall : 0.0);
  if (!dump_path.empty()) {
    std::FILE* f = std::fopen(dump_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", dump_path.c_str());
      return 1;
    }
    const std::string digest = engine.merged_digest();
    std::fprintf(f, "gsight-shard-dump/v1 cells=%zu\n", engine.shard_count());
    std::fwrite(digest.data(), 1, digest.size(), f);
    std::fclose(f);
    std::printf("state digest dumped to %s\n", dump_path.c_str());
  }
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  std::size_t threads = 0;
  if (!env_threads(&threads)) return usage();
  std::uint64_t seed = 2027;
  std::size_t count = 8;
  core::QosKind qos = core::QosKind::kIpc;
  core::ColocationClass cls = core::ColocationClass::kLsScBg;
  std::string dump_path;
  bool sharded = false;
  std::size_t shards = 0;
  std::size_t clusters = 8;
  std::size_t servers = 32;
  double horizon = 120.0;
  ShardedCloneOptions clone;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--threads" && value != nullptr) {
      if (!threads_arg(arg, value, &threads)) return usage();
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      if (!count_arg(arg, value, &seed)) return usage();
      ++i;
    } else if (arg == "--count" && value != nullptr) {
      if (!count_arg(arg, value, &count)) return usage();
      ++i;
    } else if (arg == "--qos" && value != nullptr) {
      const std::string v = value;
      if (v == "ipc") {
        qos = core::QosKind::kIpc;
      } else if (v == "lat") {
        qos = core::QosKind::kTailLatency;
      } else if (v == "jct") {
        qos = core::QosKind::kJct;
      } else {
        return usage();
      }
      ++i;
    } else if (arg == "--cls" && value != nullptr) {
      const std::string v = value;
      if (v == "ls+ls") {
        cls = core::ColocationClass::kLsLs;
      } else if (v == "ls+sc") {
        cls = core::ColocationClass::kLsScBg;
      } else if (v == "sc+sc") {
        cls = core::ColocationClass::kScScBg;
      } else {
        return usage();
      }
      ++i;
    } else if (arg == "--dump" && value != nullptr) {
      dump_path = value;
      ++i;
    } else if (arg == "--shards" && value != nullptr) {
      sharded = true;
      if (!count_arg(arg, value, &shards)) return usage();
      ++i;
    } else if (arg == "--clusters" && value != nullptr) {
      if (!count_arg(arg, value, &clusters)) return usage();
      ++i;
    } else if (arg == "--servers" && value != nullptr) {
      if (!count_arg(arg, value, &servers)) return usage();
      ++i;
    } else if (arg == "--horizon" && value != nullptr) {
      if (!positive_arg(arg, value, &horizon)) return usage();
      ++i;
    } else if (arg == "--clone-factor" && value != nullptr) {
      if (!count_arg(arg, value, &clone.clone_factor)) return usage();
      ++i;
    } else if (arg == "--clone-handoffs") {
      clone.clone_handoffs = true;
    } else if (arg == "--remote" && value != nullptr) {
      if (!real_arg(arg, value, &clone.remote_fraction, 0.0, 1.0,
                    "a fraction in [0, 1]")) {
        return usage();
      }
      ++i;
    } else if (arg == "--ps") {
      clone.processor_sharing = true;
    } else {
      return usage();
    }
  }
  if (sharded) {
    return cmd_campaign_sharded(shards, threads, seed, clusters, servers,
                                horizon, dump_path, clone);
  }
  if (clone.clone_factor > 1 || clone.clone_handoffs ||
      clone.remote_fraction >= 0.0 || clone.processor_sharing) {
    std::fprintf(stderr,
                 "error: --clone-factor/--clone-handoffs/--remote/--ps "
                 "require --shards\n");
    return usage();
  }

  // Small, fast geometry (the demo's): the subcommand exists to exercise
  // and verify the deterministic fan-out, not to build paper-scale data.
  prof::ProfileStore store;
  core::BuilderConfig cfg;
  cfg.runner.servers = 4;
  cfg.encoder.servers = 4;
  cfg.encoder.max_workloads = 4;
  cfg.runner.server = sim::ServerConfig::socket();
  cfg.profiler = profiler_config();
  cfg.profiler.ls_profile_s = 15.0;
  cfg.ls_qps_levels = {40.0};
  core::DatasetBuilder builder(&store, cfg, seed);

  core::BuildRequest request;
  request.cls = cls;
  request.qos = qos;
  request.count = count;
  request.campaign.threads = threads;
  std::printf("campaign: %zu %s scenarios, seed %llu, threads %zu%s\n",
              count, core::to_string(cls),
              static_cast<unsigned long long>(seed), threads,
              threads == 0 ? " (hardware)" : "");
  const auto samples = builder.build(request);

  std::size_t label_count = 0;
  stats::Running label_stats;
  for (const auto& s : samples) {
    label_count += s.labels.size();
    for (double l : s.labels) label_stats.add(l);
  }
  std::printf("built %zu labelled scenarios, %zu label windows, mean label "
              "%.4f\n",
              samples.size(), label_count, label_stats.mean());
  if (!dump_path.empty()) {
    if (!dump_samples(samples, dump_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", dump_path.c_str());
      return 1;
    }
    std::printf("sample stream dumped to %s\n", dump_path.c_str());
  }
  return 0;
}

/// `gsight clone-bench` — sweep clone factor × interference intensity ×
/// service discipline and emit the latency-vs-cloning frontier
/// (BENCH_cloning_frontier.json). The human-readable table prints one row
/// per cell: p99 falling with d on quiet servers and rising with d under
/// heavy antagonists is the paper-replication headline.
int cmd_clone_bench(int argc, char** argv) {
  sched::CloningFrontierConfig cfg;
  if (!env_threads(&cfg.campaign.threads)) return usage();
  std::string out_dir = ".";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--threads" && value != nullptr) {
      if (!threads_arg(arg, value, &cfg.campaign.threads)) return usage();
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      if (!count_arg(arg, value, &cfg.seed)) return usage();
      ++i;
    } else if (arg == "--reps" && value != nullptr) {
      if (!count_arg(arg, value, &cfg.replications)) return usage();
      ++i;
    } else if (arg == "--servers" && value != nullptr) {
      if (!count_arg(arg, value, &cfg.servers)) return usage();
      ++i;
    } else if (arg == "--qps" && value != nullptr) {
      if (!positive_arg(arg, value, &cfg.qps)) return usage();
      ++i;
    } else if (arg == "--duration" && value != nullptr) {
      if (!positive_arg(arg, value, &cfg.duration_s)) return usage();
      ++i;
    } else if (arg == "--factors" && value != nullptr) {
      if (!count_list_arg(arg, value, &cfg.clone_factors)) return usage();
      ++i;
    } else if (arg == "--levels" && value != nullptr) {
      if (!count_list_arg(arg, value, &cfg.interference_levels)) return usage();
      ++i;
    } else if (arg == "--sync") {
      cfg.policy = sim::CloneConfig::Policy::kSynchronized;
    } else if (arg == "--out" && value != nullptr) {
      out_dir = value;
      ++i;
    } else {
      return usage();
    }
  }

  std::printf("clone-bench: %zu servers, %.0f qps, %zu reps/cell, seed %llu, "
              "threads %zu%s\n",
              cfg.servers, cfg.qps, cfg.replications,
              static_cast<unsigned long long>(cfg.seed), cfg.campaign.threads,
              cfg.campaign.threads == 0 ? " (hardware)" : "");
  const auto t0 = std::chrono::steady_clock::now();
  const sched::CloningFrontierResult result = sched::run_cloning_frontier(cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("%-10s %4s %3s %10s %10s %10s %10s %10s\n", "discipline", "bg",
              "d", "p50(ms)", "p99(ms)", "p999(ms)", "done", "cancelled");
  for (const auto& c : result.cells) {
    std::printf("%-10s %4zu %3zu %10.2f %10.2f %10.2f %10.0f %10.0f\n",
                sched::discipline_label(c.discipline).c_str(), c.antagonists,
                c.clone_factor, c.p50.mean * 1e3, c.p99.mean * 1e3,
                c.p999.mean * 1e3, c.completed.mean, c.clones_cancelled.mean);
  }

  obs::RunReport report("cloning_frontier");
  result.write_into(report);
  report.set_meta("servers", std::to_string(cfg.servers));
  report.set_meta("qps", std::to_string(cfg.qps));
  report.set_meta("replications", std::to_string(cfg.replications));
  report.set_meta("seed", std::to_string(cfg.seed));
  report.set_meta("policy",
                  cfg.policy == sim::CloneConfig::Policy::kSynchronized
                      ? "synchronized"
                      : "independent");
  report.set_wall_time_s(wall);
  const std::string path = report.write(out_dir);
  if (path.empty()) {
    std::fprintf(stderr, "error: cannot write report to %s\n",
                 out_dir.c_str());
    return 1;
  }
  std::printf("report -> %s (%.1fs wall)\n", path.c_str(), wall);
  return 0;
}

/// Parse one --drain spec "R@D" or "R@D:A" (drain replica R before
/// request D, re-add before request A). Returns false on syntax error.
bool parse_drain_spec(std::string_view spec, serve::DrainStep* step) {
  const auto at = spec.find('@');
  if (at == std::string_view::npos) return false;
  const auto colon = spec.find(':', at);
  const auto replica = core::parse_uint(spec.substr(0, at), core::kMaxThreads);
  const auto drain_at =
      core::parse_uint(spec.substr(at + 1, colon - (at + 1)));
  const auto readd_at = colon == std::string_view::npos
                            ? std::optional<std::uint64_t>(0)
                            : core::parse_uint(spec.substr(colon + 1));
  if (!replica || !drain_at || !readd_at) return false;
  step->replica = *replica;
  step->drain_at = *drain_at;
  step->readd_at = *readd_at;
  return true;
}

/// The serve-bench serving model: the deployed IRFR, warmed on
/// `warm_rows` synthetic samples of the driver's ground-truth function so
/// the initial snapshot is a real model and under-load publishes are
/// genuine hot swaps (v1 -> v2 -> ...), not the cold first fit.
ml::IncrementalForest warm_serving_model(std::size_t dim,
                                         std::size_t warm_rows,
                                         std::uint64_t seed) {
  ml::IncrementalForest model(core::deployed_irfr_config(), seed);
  if (warm_rows > 0) {
    stats::Rng rng(seed ^ 0x5EEDF00DULL);
    ml::Dataset warm(dim);
    std::vector<double> row(dim);
    for (std::size_t i = 0; i < warm_rows; ++i) {
      for (auto& v : row) v = rng.uniform();
      warm.add(row, serve::LoadDriver::label_of(row));
    }
    model.partial_fit(warm);
  }
  return model;
}

/// Fleet variant of serve-bench: N replicas behind a Router, central
/// training with fan-out publishing, an optional mid-run drain schedule
/// and an optional gsight-live/v1 NDJSON stream. Emits
/// BENCH_serve_fleet.json; the conservation fields (lost must be 0) and
/// the live stream are what check.sh's fleet twin-run stage compares.
int cmd_serve_fleet(serve::FleetRequest fr, serve::DriverRequest lc,
                    std::size_t warm_rows, const std::string& out_dir,
                    const std::string& live_path) {
  const auto t0 = std::chrono::steady_clock::now();

  serve::PredictionFleet fleet(
      fr, warm_serving_model(fr.service.feature_dim, warm_rows, lc.seed));

  std::ofstream live_os;
  std::unique_ptr<obs::LiveStreamSink> sink;
  if (!live_path.empty()) {
    live_os.open(live_path);
    if (!live_os) {
      std::fprintf(stderr, "error: cannot write %s\n", live_path.c_str());
      return 1;
    }
    sink = std::make_unique<obs::LiveStreamSink>(live_os);
    sink->hello("serve-bench",
                {{"replicas", std::to_string(fr.replicas)},
                 {"router", serve::router_policy_name(fr.router)},
                 {"worker_threads", std::to_string(fr.service.worker_threads)},
                 {"requests", std::to_string(lc.requests)},
                 {"seed", std::to_string(lc.seed)}});
    fleet.set_live_sink(sink.get());
    if (lc.live_every == 0) lc.live_every = 256;
  }

  const serve::LoadOutcome outcome = serve::LoadDriver(lc).run(fleet);
  fleet.stop();
  const serve::FleetStats fs = fleet.stats();

  obs::RunReport report("serve_fleet");
  report.add_result("requests", static_cast<double>(outcome.submitted));
  report.add_result("completed", static_cast<double>(outcome.completed));
  report.add_result("shed", static_cast<double>(outcome.shed));
  // Conservation across routing, shedding and any mid-run re-shard:
  // every submission either completed or was shed, exactly once. The
  // fleet twin-run gate asserts this is 0.
  report.add_result("lost",
                    static_cast<double>(outcome.submitted - outcome.completed -
                                        outcome.shed));
  report.add_result("throughput", outcome.throughput_rps, "req/s");
  report.add_result("latency_p50", outcome.latency_p50_us, "us");
  report.add_result("latency_p95", outcome.latency_p95_us, "us");
  report.add_result("latency_p99", outcome.latency_p99_us, "us");
  report.add_result("latency_mean", outcome.latency_mean_us, "us");
  report.add_result("latency_max", outcome.latency_max_us, "us");
  report.add_result("train_rounds", static_cast<double>(fs.train_rounds));
  report.add_result("publishes", static_cast<double>(fs.publishes));
  report.add_result("latest_version", static_cast<double>(fs.latest_version));
  report.add_result("watermark", static_cast<double>(fs.watermark));
  report.add_result("stale_replicas", static_cast<double>(fs.stale_replicas));
  report.add_result("active_replicas",
                    static_cast<double>(fs.active_replicas));
  report.add_result("drains", static_cast<double>(fs.drains));
  report.add_result("readds", static_cast<double>(fs.readds));
  obs::Json routed = obs::Json::array();
  for (std::uint64_t c : fs.routed) routed.push_back(static_cast<double>(c));
  report.add_series("replica_routed", std::move(routed));
  obs::Json versions = obs::Json::array();
  for (std::uint64_t v : fs.replica_versions) {
    versions.push_back(static_cast<double>(v));
  }
  report.add_series("replica_versions", std::move(versions));
  obs::MetricsRegistry registry;
  fleet.export_metrics(registry);
  report.attach_metrics(registry);
  report.set_meta("mode", lc.mode == serve::DriverRequest::Mode::kOpenLoop
                              ? "open"
                              : "closed");
  report.set_meta("replicas", std::to_string(fr.replicas));
  report.set_meta("router", serve::router_policy_name(fr.router));
  report.set_meta("worker_threads",
                  std::to_string(fr.service.worker_threads));
  report.set_meta("feature_dim", std::to_string(fr.service.feature_dim));
  report.set_meta("seed", std::to_string(lc.seed));
  report.set_wall_time_s(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());

  const std::string path = report.write(out_dir);
  if (path.empty()) {
    std::fprintf(stderr, "error: cannot write report to %s\n",
                 out_dir.c_str());
    return 1;
  }
  std::printf(
      "serve-fleet: %zu replicas (%s), %zu requests (%zu completed, %zu "
      "shed, %zu lost), %.0f req/s, p50/p95/p99 %.1f/%.1f/%.1f us, "
      "watermark v%llu (latest v%llu, %zu stale), %llu drains / %llu "
      "re-adds\nreport -> %s\n",
      fr.replicas, serve::router_policy_name(fr.router), outcome.submitted,
      outcome.completed, outcome.shed,
      outcome.submitted - outcome.completed - outcome.shed,
      outcome.throughput_rps, outcome.latency_p50_us, outcome.latency_p95_us,
      outcome.latency_p99_us,
      static_cast<unsigned long long>(fs.watermark),
      static_cast<unsigned long long>(fs.latest_version), fs.stale_replicas,
      static_cast<unsigned long long>(fs.drains),
      static_cast<unsigned long long>(fs.readds), path.c_str());
  if (sink) {
    std::printf("live stream -> %s (%llu records)\n", live_path.c_str(),
                static_cast<unsigned long long>(sink->records()));
  }
  return 0;
}

// Online serving bench: drive serve::PredictionService with synthetic
// Poisson load and emit BENCH_serve.json. With --threads 0 the whole run
// is synchronous on a virtual clock: two invocations with the same
// arguments produce byte-identical reports modulo "wall_time_s" (the
// determinism gate in scripts/check.sh). Table-4 scale is the default
// geometry: 2580-dim overlap codes through the 80-tree deployed IRFR.
// --fleet N hands off to cmd_serve_fleet (same flags + the fleet ones).
int cmd_serve_bench(int argc, char** argv) {
  serve::ServiceConfig sc;
  sc.feature_dim = 2580;
  sc.worker_threads = 2;
  serve::DriverRequest lc;
  std::size_t warm_rows = 256;
  std::string out_dir = ".";
  std::size_t fleet = 0;
  serve::RouterPolicy router = serve::RouterPolicy::kConsistentHash;
  std::size_t vnodes = 64;
  std::vector<serve::DrainStep> drains;
  std::string live_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--threads" && value != nullptr) {
      if (!threads_arg(arg, value, &sc.worker_threads)) return usage();
      ++i;
    } else if (arg == "--requests" && value != nullptr) {
      if (!count_arg(arg, value, &lc.requests)) return usage();
      ++i;
    } else if (arg == "--rate" && value != nullptr) {
      if (!positive_arg(arg, value, &lc.rate_hz)) return usage();
      ++i;
    } else if (arg == "--dim" && value != nullptr) {
      if (!count_arg(arg, value, &sc.feature_dim)) return usage();
      ++i;
    } else if (arg == "--batch" && value != nullptr) {
      if (!count_arg(arg, value, &sc.max_batch)) return usage();
      ++i;
    } else if (arg == "--linger-us" && value != nullptr) {
      std::uint32_t linger_us = 0;
      if (!count_arg(arg, value, &linger_us)) return usage();
      sc.batch_linger = std::chrono::microseconds(linger_us);
      ++i;
    } else if (arg == "--queue" && value != nullptr) {
      if (!count_arg(arg, value, &sc.queue_capacity)) return usage();
      ++i;
    } else if (arg == "--warm" && value != nullptr) {
      if (!count_arg(arg, value, &warm_rows)) return usage();
      ++i;
    } else if (arg == "--observe-every" && value != nullptr) {
      if (!count_arg(arg, value, &lc.observe_every)) return usage();
      ++i;
    } else if (arg == "--mode" && value != nullptr) {
      const std::string v = value;
      if (v == "open") {
        lc.mode = serve::DriverRequest::Mode::kOpenLoop;
      } else if (v == "closed") {
        lc.mode = serve::DriverRequest::Mode::kClosedLoop;
      } else {
        return usage();
      }
      ++i;
    } else if (arg == "--clients" && value != nullptr) {
      if (!threads_arg(arg, value, &lc.clients)) return usage();
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      if (!count_arg(arg, value, &lc.seed)) return usage();
      ++i;
    } else if (arg == "--out" && value != nullptr) {
      out_dir = value;
      ++i;
    } else if (arg == "--fleet" && value != nullptr) {
      if (!threads_arg(arg, value, &fleet)) return usage();
      ++i;
    } else if (arg == "--router" && value != nullptr) {
      const auto parsed = serve::parse_router_policy(value);
      if (!parsed) return usage();
      router = *parsed;
      ++i;
    } else if (arg == "--vnodes" && value != nullptr) {
      if (!count_arg(arg, value, &vnodes)) return usage();
      ++i;
    } else if (arg == "--drain" && value != nullptr) {
      serve::DrainStep step;
      if (!parse_drain_spec(value, &step)) {
        std::fprintf(stderr, "error: bad --drain spec '%s' (want R@D[:A])\n",
                     value);
        return usage();
      }
      drains.push_back(step);
      ++i;
    } else if (arg == "--live" && value != nullptr) {
      live_path = value;
      ++i;
    } else if (arg == "--live-every" && value != nullptr) {
      if (!count_arg(arg, value, &lc.live_every)) return usage();
      ++i;
    } else {
      return usage();
    }
  }

  if (fleet > 0) {
    if (fleet * sc.worker_threads > core::kMaxThreads) {
      std::fprintf(stderr, "error: --fleet x --threads exceeds %llu\n",
                   static_cast<unsigned long long>(core::kMaxThreads));
      return usage();
    }
    serve::FleetRequest fr;
    fr.replicas = fleet;
    fr.router = router;
    fr.vnodes_per_replica = vnodes;
    fr.service = sc;
    fr.drains = std::move(drains);
    return cmd_serve_fleet(std::move(fr), lc, warm_rows, out_dir, live_path);
  }
  if (!drains.empty() || !live_path.empty() || lc.live_every > 0) {
    std::fprintf(stderr,
                 "error: --drain/--live/--live-every need --fleet N "
                 "(single-service serve-bench has no router or live "
                 "stream)\n");
    return usage();
  }

  const auto t0 = std::chrono::steady_clock::now();

  serve::PredictionService service(
      sc, warm_serving_model(sc.feature_dim, warm_rows, lc.seed));
  const std::uint64_t swaps_before = service.stats().snapshot_swaps;
  const std::uint64_t version_before = service.stats().model_version;

  const serve::LoadOutcome outcome = serve::LoadDriver(lc).run(service);
  service.stop();
  const serve::ServiceStats svc = service.stats();

  obs::RunReport report("serve");
  report.add_result("requests", static_cast<double>(outcome.submitted));
  report.add_result("completed", static_cast<double>(outcome.completed));
  report.add_result("shed", static_cast<double>(outcome.shed));
  report.add_result("shed_rate",
                    outcome.submitted > 0
                        ? static_cast<double>(outcome.shed) /
                              static_cast<double>(outcome.submitted)
                        : 0.0);
  report.add_result("throughput", outcome.throughput_rps, "req/s");
  report.add_result("latency_p50", outcome.latency_p50_us, "us");
  report.add_result("latency_p95", outcome.latency_p95_us, "us");
  report.add_result("latency_p99", outcome.latency_p99_us, "us");
  report.add_result("latency_mean", outcome.latency_mean_us, "us");
  report.add_result("latency_max", outcome.latency_max_us, "us");
  report.add_result("batches", static_cast<double>(svc.batches));
  report.add_result("mean_batch_size",
                    svc.batches > 0
                        ? static_cast<double>(svc.predicted) /
                              static_cast<double>(svc.batches)
                        : 0.0);
  report.add_result("train_rounds", static_cast<double>(svc.train_rounds));
  report.add_result("snapshot_swaps",
                    static_cast<double>(svc.snapshot_swaps));
  report.add_result("hot_swaps_under_load",
                    static_cast<double>(svc.snapshot_swaps - swaps_before));
  report.add_result("model_version", static_cast<double>(svc.model_version));
  obs::Json hist = obs::Json::array();
  for (std::uint64_t c : svc.batch_size_counts) {
    hist.push_back(static_cast<double>(c));
  }
  report.add_series("batch_size_counts", std::move(hist));
  obs::MetricsRegistry registry;
  service.export_metrics(registry);
  report.attach_metrics(registry);
  report.set_meta("mode", lc.mode == serve::DriverRequest::Mode::kOpenLoop
                              ? "open"
                              : "closed");
  report.set_meta("worker_threads", std::to_string(sc.worker_threads));
  report.set_meta("feature_dim", std::to_string(sc.feature_dim));
  report.set_meta("max_batch", std::to_string(sc.max_batch));
  report.set_meta("seed", std::to_string(lc.seed));
  report.set_wall_time_s(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());

  const std::string path = report.write(out_dir);
  if (path.empty()) {
    std::fprintf(stderr, "error: cannot write report to %s\n",
                 out_dir.c_str());
    return 1;
  }
  std::printf(
      "serve-bench: %zu requests (%zu completed, %zu shed), %.0f req/s, "
      "p50/p95/p99 %.1f/%.1f/%.1f us, %llu batches, %llu hot swaps "
      "(model v%llu -> v%llu)\nreport -> %s\n",
      outcome.submitted, outcome.completed, outcome.shed,
      outcome.throughput_rps, outcome.latency_p50_us, outcome.latency_p95_us,
      outcome.latency_p99_us,
      static_cast<unsigned long long>(svc.batches),
      static_cast<unsigned long long>(svc.snapshot_swaps - swaps_before),
      static_cast<unsigned long long>(version_before),
      static_cast<unsigned long long>(svc.model_version), path.c_str());
  return 0;
}

/// Pretty-print one parsed gsight-live/v1 record. Unknown record types
/// fall back to compact JSON so the tool never hides stream content.
void print_live_record(const obs::Json& record) {
  const auto* type = record.find("type");
  const auto* ts = record.find("ts_s");
  const double t = ts != nullptr ? ts->number() : 0.0;
  const std::string kind = type != nullptr ? type->string() : "";
  if (kind == "hello") {
    const auto* schema = record.find("schema");
    const auto* source = record.find("source");
    std::printf("hello %s from %s",
                schema != nullptr ? schema->string().c_str() : "?",
                source != nullptr ? source->string().c_str() : "?");
    if (const auto* meta = record.find("meta"); meta != nullptr) {
      for (const auto& [k, v] : meta->members()) {
        std::printf("  %s=%s", k.c_str(), v.string().c_str());
      }
    }
    std::printf("\n");
    return;
  }
  if (kind == "metric") {
    const auto* name = record.find("name");
    const auto* labels = record.find("labels");
    const auto* value = record.find("value");
    const auto* delta = record.find("delta");
    std::printf("%10.6fs  metric  %-28s%s%s  %.6g (%+.6g)\n", t,
                name != nullptr ? name->string().c_str() : "?",
                labels != nullptr && !labels->string().empty() ? "  " : "",
                labels != nullptr ? labels->string().c_str() : "",
                value != nullptr ? value->number() : 0.0,
                delta != nullptr ? delta->number() : 0.0);
    return;
  }
  if (kind == "mark" || kind == "span") {
    const auto* name = record.find("name");
    std::printf("%10.6fs  %-6s  %-28s", t, kind.c_str(),
                name != nullptr ? name->string().c_str() : "?");
    if (const auto* dur = record.find("dur_s"); dur != nullptr) {
      std::printf("  dur %.6gs", dur->number());
    }
    if (const auto* args = record.find("args"); args != nullptr) {
      for (const auto& [k, v] : args->members()) {
        if (v.kind() == obs::Json::Kind::kString) {
          std::printf("  %s=%s", k.c_str(), v.string().c_str());
        } else {
          std::printf("  %s=%.6g", k.c_str(), v.number());
        }
      }
    }
    std::printf("\n");
    return;
  }
  std::printf("%s\n", record.dump_string(0).c_str());
}

// `gsight tail FILE [--follow]` — human-readable view of a gsight-live/v1
// NDJSON stream (serve-bench --live writes one). --follow keeps the file
// open and prints records as the producer appends them, tail -f style.
int cmd_tail(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string path = argv[0];
  bool follow = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--follow") == 0) {
      follow = true;
    } else {
      return usage();
    }
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string line;
  std::uint64_t line_no = 0;
  while (true) {
    if (!std::getline(in, line)) {
      if (!follow) break;
      in.clear();  // EOF is transient while the producer is still writing
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    ++line_no;
    if (line.empty()) continue;
    std::string error;
    const auto record = obs::parse_live_line(line, &error);
    if (!record) {
      std::fprintf(stderr, "%s:%llu: bad record: %s\n", path.c_str(),
                   static_cast<unsigned long long>(line_no), error.c_str());
      continue;
    }
    print_live_record(*record);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "profile") return cmd_profile(argc - 2, argv + 2);
    if (cmd == "train") return cmd_train(argc - 2, argv + 2);
    if (cmd == "predict") return cmd_predict(argc - 2, argv + 2);
    if (cmd == "campaign") return cmd_campaign(argc - 2, argv + 2);
    if (cmd == "serve-bench") return cmd_serve_bench(argc - 2, argv + 2);
    if (cmd == "clone-bench") return cmd_clone_bench(argc - 2, argv + 2);
    if (cmd == "tail") return cmd_tail(argc - 2, argv + 2);
    if (cmd == "demo") return cmd_demo();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

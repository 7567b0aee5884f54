// Completion-event scheduling on a Server. The golden digest pins the
// outcome of a colocation-heavy platform run — several executions per
// server, multi-phase functions, processor sharing, clone factor 2 and an
// abort_executions mid-run — so a change to how completion events are
// queued must leave every request outcome and every recorded metric
// bit-identical. It deliberately does not hash events_executed(): how
// many events the engine runs is a cost, not an outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/platform.hpp"
#include "workloads/ecommerce.hpp"
#include "workloads/functionbench.hpp"

namespace gsight::sim {
namespace {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void dump_pairs(std::ostream& out,
                const std::vector<std::pair<double, double>>& v) {
  for (const auto& [t, x] : v) out << t << ':' << x << ' ';
  out << '\n';
}

void dump_stats(std::ostream& out, const AppStats& s) {
  dump_pairs(out, s.e2e);
  for (const auto& fn : s.fn_latency) dump_pairs(out, fn);
  for (const auto& r : s.fn_ipc) out << r.count() << ':' << r.mean() << ' ';
  out << '\n';
  dump_pairs(out, s.jct);
  out << s.failed << ' ' << s.cancelled << ' ' << s.clones_dispatched << ' '
      << s.clones_cancelled << '\n';
}

struct ColocationRun {
  std::string outcome;         ///< hexfloat text of every request outcome
  std::string recorder;        ///< Recorder::dump_string()
  std::size_t max_active = 0;  ///< most executions seen on one server
  std::size_t aborted = 0;
  std::uint64_t events = 0;
};

/// Three 40-core sockets under processor sharing. e-commerce (six
/// functions, several multi-phase) gets a replica of every function on
/// every server so clone factor 2 always finds a distinct server; a
/// three-phase video job and a single-phase float job land on servers 1
/// and 2 beside it. Requests arrive on a fixed 8 ms grid; at t = 3 s every
/// running video execution is aborted.
ColocationRun run_colocation() {
  PlatformConfig pc;
  pc.servers = 3;
  pc.server = ServerConfig::socket();
  pc.server.discipline = ServiceDiscipline::kProcessorSharing;
  pc.seed = 20261018;
  pc.gateway.clone.factor = 2;
  Platform platform(pc);

  const auto shop = wl::e_commerce();
  std::vector<std::size_t> placement(shop.function_count());
  for (std::size_t f = 0; f < placement.size(); ++f) placement[f] = f % 3;
  const std::size_t a = platform.deploy(shop, placement);
  for (std::size_t f = 0; f < placement.size(); ++f) {
    for (std::size_t s = 1; s < 3; ++s) {
      platform.add_replica(a, f, (placement[f] + s) % 3);
    }
  }
  const std::size_t video =
      platform.deploy(wl::video_processing(/*minutes=*/0.05), {1});
  const std::size_t flop = platform.deploy(wl::float_operation(), {2});

  ColocationRun run;
  std::ostringstream out;
  out << std::hexfloat;
  std::vector<std::string> outcomes;
  for (int i = 0; i < 750; ++i) {
    platform.engine().at(0.008 * i, [&platform, &outcomes, a, i] {
      platform.issue_request(a, [&outcomes, i](double latency, bool ok) {
        std::ostringstream o;
        o << std::hexfloat << i << ' ' << latency << ' ' << ok;
        outcomes.push_back(o.str());
      });
    });
  }
  for (int i = 0; i < 12; ++i) {
    platform.engine().at(0.5 * i, [&platform, &outcomes, video, flop, i] {
      platform.submit_job(video, [&outcomes, i](double jct) {
        std::ostringstream o;
        o << std::hexfloat << "video " << i << ' ' << jct;
        outcomes.push_back(o.str());
      });
      platform.submit_job(flop, [&outcomes, i](double jct) {
        std::ostringstream o;
        o << std::hexfloat << "flop " << i << ' ' << jct;
        outcomes.push_back(o.str());
      });
    });
  }
  platform.engine().at(3.0, [&platform, &run, video] {
    run.aborted = platform.abort_executions(video);
  });
  for (int step = 1; step <= 800; ++step) {
    platform.run_until(0.01 * step);
    for (std::size_t s = 0; s < pc.servers; ++s) {
      const std::size_t active = platform.cluster().server(s).active_count();
      run.max_active = std::max(run.max_active, active);
    }
  }

  for (const auto& o : outcomes) out << o << '\n';
  out << run.aborted << '\n';
  for (const std::size_t app : {a, video, flop}) {
    dump_stats(out, platform.stats(app));
  }
  run.outcome = out.str();
  run.recorder = platform.recorder().dump_string();
  run.events = platform.engine().events_executed();
  return run;
}

TEST(CompletionEvents, ColocationRunGoldenDigest) {
  const ColocationRun run = run_colocation();
  // The scenario must exercise what the digest is meant to pin.
  EXPECT_GE(run.max_active, 4u);
  EXPECT_GE(run.aborted, 1u);
  const ColocationRun twin = run_colocation();
  EXPECT_EQ(run.outcome, twin.outcome);
  EXPECT_EQ(run.recorder, twin.recorder);
  EXPECT_EQ(fnv1a(run.outcome), 0x257bbc408dafe129ull)
      << std::hex << fnv1a(run.outcome);
  EXPECT_EQ(fnv1a(run.recorder), 0x6d3f2a12446c3431ull)
      << std::hex << fnv1a(run.recorder);
}

// Exact work-counter gate. The count has no noise: it moves only when
// the event schedule does, e.g. if a server queued one completion event
// per colocated execution again.
TEST(CompletionEvents, ColocationRunEventCountGate) {
  EXPECT_EQ(run_colocation().events, 24403u);
}

}  // namespace
}  // namespace gsight::sim

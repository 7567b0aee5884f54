// The deployed IRFR's refresh path. Golden digests pin what a refresh
// trains on sparse, zero-padded overlap codes, in both split modes: the
// FNV-1a hash of the forest's save() dump, the importance bits and the
// updater's RNG state after every partial_fit round, then one tree fitted
// on the final buffer with the draw after it (the style of
// tests/ml/test_forest_equivalence.cpp). The data holds the columns a
// per-node skip of all-zero columns must get right: one that is zero
// except in a few rows, padding that mixes +0.0 and -0.0, and a column
// holding a NaN. Its rounds cross ColumnStore stride growths.
//
// PredictorRefresh.* holds GsightPredictor's background refresh to its
// contract (core/predictor.hpp): an exception surfaces at the next access
// and leaves the predictor usable, the destructor waits for a refresh in
// flight, and an interleaving of observe, flush and predict gives the
// predictions a synchronous refresh gives, pinned to the bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/predictor.hpp"
#include "ml/incremental_forest.hpp"
#include "stats/rng.hpp"

namespace gsight::core {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = kFnvOffset;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

// FNV-1a over 64-bit words, least significant byte first.
std::uint64_t fnv1a_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t w : words) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (w >> shift) & 0xFFu;
      h *= kFnvPrime;
    }
  }
  return h;
}

std::uint64_t bits_digest(std::span<const double> values) {
  std::vector<std::uint64_t> words(values.size());
  std::transform(values.begin(), values.end(), words.begin(),
                 [](double v) { return std::bit_cast<std::uint64_t>(v); });
  return fnv1a_words(words);
}

std::uint64_t dump_digest(const ml::IncrementalForest& model) {
  std::ostringstream out;
  model.forest().save(out);
  return fnv1a(out.str());
}

struct Golden {
  std::uint64_t dump;
  std::uint64_t importance;
  std::uint64_t rng;
};

// Overlap-code layout (§3.3): slots x servers x 32 metrics (16 allocation,
// of which the first 10 fill, then 16 utilisation) plus a start delay and
// a lifetime per slot. Slots 0 and 1 are live and place their functions
// on one or two servers each; slot 2 is padding apart from three columns.
struct Shape {
  std::size_t slots;
  std::size_t servers;
  std::size_t dims() const { return slots * servers * kMetrics + 2 * slots; }
  static constexpr std::size_t kMetrics = 32;
};

constexpr std::size_t kLiveSlots = 2;

// Padding columns of slot 2, server 0: zero but every 23rd row, zero but
// one NaN row, and (as all padding) +0.0 on even rows and -0.0 on odd.
std::size_t rare_column(const Shape& s) {
  return 2 * s.servers * Shape::kMetrics + 3;
}
std::size_t nan_column(const Shape& s) {
  return 2 * s.servers * Shape::kMetrics + 5;
}
constexpr std::size_t kNanRow = 7;

// Rows [first_row, first_row + n) of the stream.
ml::Dataset sparse_overlap_rows(const Shape& shape, std::size_t first_row,
                                std::size_t n, bool with_nan,
                                stats::Rng& rng) {
  ml::Dataset d(shape.dims());
  std::vector<double> x(shape.dims());
  for (std::size_t i = first_row; i < first_row + n; ++i) {
    std::fill(x.begin(), x.end(), i % 2 == 1 ? -0.0 : 0.0);
    double y = 1.0;
    for (std::size_t slot = 0; slot < kLiveSlots; ++slot) {
      const std::size_t used = 1 + rng.uniform_index(2);
      for (std::size_t k = 0; k < used; ++k) {
        const std::size_t server = rng.uniform_index(shape.servers);
        double* cell =
            x.data() + (slot * shape.servers + server) * Shape::kMetrics;
        for (std::size_t m = 0; m < 10; ++m) {
          cell[m] = static_cast<double>(1 + rng.uniform_index(4)) * 0.25;
        }
        for (std::size_t m = 16; m < Shape::kMetrics; ++m) {
          cell[m] = rng.uniform();
        }
        y -= 0.1 * cell[0] * cell[16] * static_cast<double>(slot + 1);
      }
      double* scalars =
          x.data() + shape.slots * shape.servers * Shape::kMetrics + 2 * slot;
      scalars[0] = slot == 0 ? 0.0 : rng.uniform(0.0, 30.0);
      scalars[1] = rng.uniform(5.0, 60.0);
    }
    if (i % 23 == 0) {
      x[rare_column(shape)] = 0.5 + rng.uniform();
      y -= 0.3 * x[rare_column(shape)];
    }
    if (with_nan && i == kNanRow) {
      x[nan_column(shape)] = std::numeric_limits<double>::quiet_NaN();
    }
    d.add(x, y + 0.02 * rng.normal());
  }
  return d;
}

// A first fit on 100 rows sizes the ColumnStore at a 100-row stride; the
// 40-row refreshes then grow it at 140 (to 200) and at 220 (to 400).
constexpr std::size_t kFirstRows = 100;
constexpr std::size_t kRefreshRows = 40;
constexpr std::size_t kRounds = 4;

void expect_rounds(ml::IncrementalForest& model, const Shape& shape,
                   bool with_nan, std::uint64_t data_seed,
                   std::span<const Golden> goldens) {
  stats::Rng data_rng(data_seed);
  std::size_t row = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t n = round == 0 ? kFirstRows : kRefreshRows;
    model.partial_fit(sparse_overlap_rows(shape, row, n, with_nan, data_rng));
    row += n;
    const Golden& g = goldens[round];
    EXPECT_EQ(dump_digest(model), g.dump)
        << "round " << round << std::hex << " dump 0x" << dump_digest(model);
    EXPECT_EQ(bits_digest(model.importance()), g.importance)
        << "round " << round << std::hex << " importance 0x"
        << bits_digest(model.importance());
    EXPECT_EQ(fnv1a_words(model.rng_state().s), g.rng)
        << "round " << round << std::hex << " rng 0x"
        << fnv1a_words(model.rng_state().s);
  }
  ASSERT_EQ(model.buffer().size(), kFirstRows + (kRounds - 1) * kRefreshRows);
  // The special columns are what the test says they are.
  const ml::ColumnStore& cols = model.buffer().columns();
  EXPECT_FALSE(cols.constant(rare_column(shape)));
  EXPECT_EQ(cols.constant(nan_column(shape)), !with_nan);

  // The updater's stream draws only slots and seeds; one tree on the final
  // buffer and the draw after it pin a tree's own RNG call sequence, so a
  // skipped column that consumed or saved a draw would show.
  ml::DecisionTreeRegressor tree(model.config().forest.tree);
  stats::Rng rng(8);
  tree.fit(model.buffer(), rng);
  std::ostringstream out;
  tree.save(out);
  const std::uint64_t next = rng.next();
  const Golden& g = goldens[kRounds];
  EXPECT_EQ(fnv1a(out.str()), g.dump)
      << "tree" << std::hex << " dump 0x" << fnv1a(out.str());
  EXPECT_EQ(bits_digest(tree.importance()), g.importance)
      << "tree" << std::hex << " importance 0x"
      << bits_digest(tree.importance());
  EXPECT_EQ(next, g.rng) << "tree" << std::hex << " rng 0x" << next;
}

class SparseRefreshGolden : public ::testing::TestWithParam<ml::SplitMode> {};

// 486 columns: kBest presorts (at most 512 features). The presort
// comparator ranks a NaN neither below nor above any value, so it forms no
// cycle and both modes can train on the NaN column.
TEST_P(SparseRefreshGolden, DeployedIrfrOnNarrowSparseRows) {
  ml::IncrementalForestConfig cfg = deployed_irfr_config();
  cfg.forest.tree.split_mode = GetParam();
  ml::IncrementalForest model(cfg, 18);
  const Golden random[kRounds + 1] = {
      {0x73cb9345a9aad989ull, 0xb5f22cc07b41f95full,
       0x0823f518ccb9766dull},
      {0xf3c87d516f0cf623ull, 0x80bdf14035172230ull,
       0x7a6bb9862e77a5b6ull},
      {0x72e2899e8bfbdbdeull, 0x9254dedf6cc12795ull,
       0x368fd9d484c92b37ull},
      {0x7a72e722e1a840e8ull, 0x4a0a360ef77a869full,
       0x7c225bfb9d643360ull},
      {0xd722cc2e76b199c1ull, 0xc15d8f002e19266dull,
       0x5c0ba8617480d538ull}};
  const Golden best[kRounds + 1] = {
      {0x35d70d162ef45e34ull, 0x43dd29dc7f8e6a83ull,
       0x0823f518ccb9766dull},
      {0xb90318c1522e6e13ull, 0x3ae808aca5d7e83full,
       0x7a6bb9862e77a5b6ull},
      {0xca3b9d281152325bull, 0x7ab7d7da63dd8627ull,
       0x368fd9d484c92b37ull},
      {0xa30a2b9a562270e7ull, 0x1c5948c71afed0a1ull,
       0x7c225bfb9d643360ull},
      {0xdce619d03967f920ull, 0x1811f0c01e26e423ull,
       0xb11b2fd2c63f1458ull}};
  expect_rounds(model, Shape{3, 5}, /*with_nan=*/true, 1801,
                GetParam() == ml::SplitMode::kRandom ? random : best);
}

INSTANTIATE_TEST_SUITE_P(BothModes, SparseRefreshGolden,
                         ::testing::Values(ml::SplitMode::kBest,
                                           ml::SplitMode::kRandom));

// The deployed 2 580-wide code. kBest gathers and sorts (x, y) pairs per
// node here; std::sort needs a strict weak order, which a NaN x breaks, so
// this data set has no NaN column.
TEST(SparseRefreshGolden, DeployedWidthBothModes) {
  const Golden goldens[2][kRounds + 1] = {
      {{0xd377a92d2b66342aull, 0x8a843d31d7b8813cull,
        0x8713348b181614e9ull},
       {0x260000afdc177eb9ull, 0x516c812fafb69d21ull,
        0x7046cf3be4d0a5e3ull},
       {0x7bb6ffbc9402cf8bull, 0xcc489a1b0a7bdb77ull,
        0x6994043d2980d1c3ull},
       {0x7e74616bab9851fbull, 0xa6cfeb9943d02240ull,
        0x845b7c33dd0dc668ull},
       {0xcfc6084dfbdaf6c2ull, 0x1cc3eb7c19eccacbull,
        0x9a0f7e9df5fccc58ull}},
      {{0xa0c05d548f676287ull, 0x8ba886ff9833b983ull,
        0x8713348b181614e9ull},
       {0x972156bc7025d6c3ull, 0x6d342da610d080cdull,
        0x7046cf3be4d0a5e3ull},
       {0x736fcd0302aefff0ull, 0x5f9786f6337ef57dull,
        0x6994043d2980d1c3ull},
       {0x6baa17c97ad7b158ull, 0xaf750b595c38b706ull,
        0x845b7c33dd0dc668ull},
       {0x42e87b10befa4b26ull, 0xcb2b40cfab4f404eull,
        0xef7faebdb9723f53ull}}};
  for (const ml::SplitMode mode :
       {ml::SplitMode::kBest, ml::SplitMode::kRandom}) {
    SCOPED_TRACE(mode == ml::SplitMode::kBest ? "kBest" : "kRandom");
    ml::IncrementalForestConfig cfg = deployed_irfr_config();
    cfg.forest.tree.split_mode = mode;
    ml::IncrementalForest model(cfg, 2580);
    expect_rounds(model, Shape{10, 8}, /*with_nan=*/false, 2581,
                  goldens[mode == ml::SplitMode::kBest ? 0 : 1]);
  }
}

// --- Background refresh contract ------------------------------------------

prof::AppProfile make_profile(const std::string& name, std::size_t fns,
                              double ipc_base) {
  prof::AppProfile p;
  p.app_name = name;
  for (std::size_t i = 0; i < fns; ++i) {
    prof::FunctionProfile fp;
    fp.app_name = name;
    fp.fn_name = name + "-fn" + std::to_string(i);
    for (std::size_t k = 0; k < prof::kMetricCount; ++k) {
      fp.metrics[k] = ipc_base + static_cast<double>(i) +
                      0.01 * static_cast<double>(k);
    }
    fp.demand.cores = 1.0;
    fp.mem_alloc_gb = 0.5;
    fp.solo_duration_s = 0.01;
    fp.solo_ipc = ipc_base;
    p.functions.push_back(fp);
  }
  return p;
}

/// Counts partial_fit calls and rows; the call numbered `fail_call`
/// (1-based) throws before absorbing anything. `done` is set when a
/// partial_fit returns, so a test can see that a refresh finished.
class ScriptedModel final : public ml::IncrementalRegressor {
 public:
  ScriptedModel(std::size_t fail_call, std::shared_ptr<std::atomic<int>> done)
      : fail_call_(fail_call), done_(std::move(done)) {}

  void partial_fit(const ml::Dataset& batch) override {
    if (++calls_ == fail_call_) throw std::runtime_error("refresh failed");
    rows_ += batch.size();
    done_->fetch_add(1);
  }
  double predict(std::span<const double>) const override {
    return static_cast<double>(rows_);
  }
  std::string name() const override { return "scripted"; }
  std::size_t samples_seen() const override { return rows_; }

 private:
  std::size_t fail_call_;
  std::shared_ptr<std::atomic<int>> done_;
  std::size_t calls_ = 0;
  std::size_t rows_ = 0;
};

struct PredictorRefresh : ::testing::Test {
  prof::AppProfile target = make_profile("target", 2, 1.2);
  prof::AppProfile corunner = make_profile("corunner", 1, 2.1);

  PredictorConfig config() const {
    PredictorConfig cfg;
    cfg.encoder.servers = 3;
    cfg.encoder.max_workloads = 2;
    cfg.update_batch = 16;
    return cfg;
  }

  Scenario scenario(std::size_t i) const {
    Scenario s;
    s.servers = 3;
    s.workloads.push_back({&target, {i % 3, (i + 1) % 3}, 0.0, 0.0});
    s.workloads.push_back({&corunner,
                           {(i / 3) % 3},
                           static_cast<double>(i % 17),
                           10.0 + static_cast<double>(i % 29)});
    return s;
  }

  static double label(std::size_t i) {
    return 1.0 + 0.05 * static_cast<double>(i % 7) -
           0.01 * static_cast<double>(i % 3);
  }
};

TEST_F(PredictorRefresh, FailedRefreshSurfacesAtNextPredictThenRecovers) {
  auto done = std::make_shared<std::atomic<int>>(0);
  GsightPredictor predictor(config(),
                            std::make_unique<ScriptedModel>(2, done));
  for (std::size_t i = 0; i < 3; ++i) predictor.observe(scenario(i), 1.0);
  predictor.flush();  // call 1 succeeds
  EXPECT_EQ(predictor.predict(scenario(0)), 3.0);

  for (std::size_t i = 0; i < 4; ++i) predictor.observe(scenario(i), 1.0);
  predictor.flush();  // call 2 throws in the background
  EXPECT_THROW((void)predictor.predict(scenario(0)), std::runtime_error);

  // Surfaced once: the predictor serves the model it has, and learns again.
  EXPECT_EQ(predictor.predict(scenario(0)), 3.0);
  EXPECT_EQ(predictor.samples_seen(), 3u);
  for (std::size_t i = 0; i < 5; ++i) predictor.observe(scenario(i), 1.0);
  predictor.flush();  // call 3 succeeds
  EXPECT_EQ(predictor.predict(scenario(0)), 8.0);
  EXPECT_EQ(done->load(), 2);
}

TEST_F(PredictorRefresh, FailedRefreshSurfacesAtNextFlushAndKeepsItsBatch) {
  auto done = std::make_shared<std::atomic<int>>(0);
  GsightPredictor predictor(config(),
                            std::make_unique<ScriptedModel>(1, done));
  for (std::size_t i = 0; i < 2; ++i) predictor.observe(scenario(i), 1.0);
  predictor.flush();  // call 1 throws in the background
  for (std::size_t i = 0; i < 5; ++i) predictor.observe(scenario(i), 1.0);
  EXPECT_THROW(predictor.flush(), std::runtime_error);
  // The rows observed since stay buffered; the next flush folds them in.
  predictor.flush();
  EXPECT_EQ(predictor.samples_seen(), 5u);
}

TEST_F(PredictorRefresh, DestructorWaitsForTheRefreshInFlight) {
  // The deployed IRFR on 48 rows: the refresh is still training when the
  // predictor goes out of scope. A destructor that did not wait would
  // free the model under it (ASan) and leave `done` unset.
  auto done = std::make_shared<std::atomic<int>>(0);
  class Recording final : public ml::IncrementalRegressor {
   public:
    explicit Recording(std::shared_ptr<std::atomic<int>> done)
        : done_(std::move(done)) {}
    void partial_fit(const ml::Dataset& batch) override {
      forest_.partial_fit(batch);
      done_->fetch_add(1);
    }
    double predict(std::span<const double> x) const override {
      return forest_.predict(x);
    }
    std::string name() const override { return "recording"; }
    std::size_t samples_seen() const override {
      return forest_.samples_seen();
    }

   private:
    ml::IncrementalForest forest_{deployed_irfr_config(), 3};
    std::shared_ptr<std::atomic<int>> done_;
  };
  {
    GsightPredictor predictor(config(), std::make_unique<Recording>(done));
    for (std::size_t i = 0; i < 48; ++i) {
      predictor.observe(scenario(i), label(i));
    }
  }
  EXPECT_EQ(done->load(), 3);  // 48 rows in batches of 16
}

TEST_F(PredictorRefresh, DestructorSwallowsAFailedRefresh) {
  auto done = std::make_shared<std::atomic<int>>(0);
  {
    GsightPredictor predictor(config(),
                              std::make_unique<ScriptedModel>(1, done));
    predictor.observe(scenario(0), 1.0);
    predictor.flush();
  }
  EXPECT_EQ(done->load(), 0);
}

TEST_F(PredictorRefresh, InterleavingMatchesPinnedGolden) {
  // observe() flushes itself every 16 rows; explicit flushes land between
  // and on empty buffers; every read follows a refresh handed off just
  // before it. The digest of every prediction's bits is what a predictor
  // that refreshed synchronously produces.
  GsightPredictor predictor(config());
  std::vector<double> seen;
  std::size_t next = 0;
  const auto observe = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k, ++next) {
      predictor.observe(scenario(next), label(next));
    }
  };
  std::vector<Scenario> probes;
  for (std::size_t i = 0; i < 9; ++i) probes.push_back(scenario(100 + 5 * i));

  observe(10);
  seen.push_back(predictor.predict(probes[0]));  // cold model
  predictor.flush();
  seen.push_back(predictor.predict(probes[1]));
  observe(40);  // two self-flushes
  for (const double v : predictor.predict_batch(probes)) seen.push_back(v);
  observe(7);
  predictor.flush();
  predictor.flush();  // nothing buffered
  seen.push_back(predictor.predict(probes[2]));
  EXPECT_EQ(predictor.samples_seen(), 57u);
  observe(16);
  for (const double v : predictor.predict_batch(probes)) seen.push_back(v);
  observe(3);
  predictor.flush();
  seen.push_back(predictor.predict(probes[8]));
  EXPECT_EQ(predictor.model().samples_seen(), 76u);

  EXPECT_EQ(bits_digest(seen), 0x4c03106773ac8492ull)
      << std::hex << "0x" << bits_digest(seen);
}

}  // namespace
}  // namespace gsight::core

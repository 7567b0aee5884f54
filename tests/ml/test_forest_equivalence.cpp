// Golden equivalence between the legacy row-major training kernel and the
// columnar fast path (TreeKernel::kColumnar): same splits, same
// tie-breaking, same node arrays, same importances — bit-identical, not
// just statistically close. Serialised dumps are compared because
// save() prints doubles at max_digits10, which round-trips every distinct
// double to a distinct string. Also covers the batched-inference
// contract: predict_batch must equal N single predict() calls exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string_view>
#include <vector>

#include "ml/incremental_forest.hpp"
#include "ml/random_forest.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {
namespace {

std::string dump(const DecisionTreeRegressor& tree) {
  std::ostringstream out;
  tree.save(out);
  return out.str();
}

std::string dump(const RandomForestRegressor& forest) {
  std::ostringstream out;
  forest.save(out);
  return out.str();
}

// Tie-heavy dataset: quantised features (many equal values per column), a
// constant column, and duplicated rows — the cases where split
// tie-breaking and accumulation order can silently diverge.
Dataset tie_heavy_data(std::size_t n, std::size_t dims, stats::Rng& rng) {
  Dataset d(dims);
  std::vector<double> x(dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < dims; ++f) {
      x[f] = f == 0 ? 1.0  // constant feature
                    : static_cast<double>(rng.uniform_index(5));
    }
    const double y = x[1] * 2.0 - x[2] + 0.25 * rng.normal();
    d.add(x, y);
    if (i % 7 == 0) d.add(x, y);  // exact duplicate rows
  }
  return d;
}

Dataset smooth_data(std::size_t n, std::size_t dims, stats::Rng& rng) {
  Dataset d(dims);
  std::vector<double> x(dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    d.add(x, x[0] * x[0] - 3.0 * x[1] + rng.normal());
  }
  return d;
}

// Rows shaped like the paper's overlap code (§3.3): kSlots workload slots
// x kServers servers x (16 allocation + 16 utilisation) metrics, plus a
// start delay and a lifetime per slot — 2 580 dims. Each live slot places
// its functions on a few servers and leaves the other server rows zero;
// the allocation rows only fill their first 10 entries (the rest is the
// paper's padding to 16); slots past `live` are zero-padded entirely.
// With `signed_zeros`, every other row writes its padding as -0.0, so the
// dead columns mix ±0.0 — still constant under ==.
constexpr std::size_t kSlots = 10;
constexpr std::size_t kServers = 8;
constexpr std::size_t kMetrics = 32;
constexpr std::size_t kOverlapDims = kSlots * kServers * kMetrics + 2 * kSlots;

Dataset overlap_shaped_data(std::size_t n, std::size_t live, stats::Rng& rng,
                            bool signed_zeros = false) {
  Dataset d(kOverlapDims);
  std::vector<double> x(kOverlapDims);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(x.begin(), x.end(), signed_zeros && i % 2 == 1 ? -0.0 : 0.0);
    double y = 1.0;
    for (std::size_t slot = 0; slot < live; ++slot) {
      const std::size_t servers_used = 1 + rng.uniform_index(2);
      for (std::size_t k = 0; k < servers_used; ++k) {
        const std::size_t server = rng.uniform_index(kServers);
        double* cell = x.data() + (slot * kServers + server) * kMetrics;
        for (std::size_t m = 0; m < 10; ++m) {  // allocation, quantised
          cell[m] = static_cast<double>(1 + rng.uniform_index(4)) * 0.25;
        }
        for (std::size_t m = 16; m < kMetrics; ++m) cell[m] = rng.uniform();
        y -= 0.1 * cell[0] * cell[16] * static_cast<double>(slot + 1);
      }
      double* scalars = x.data() + kSlots * kServers * kMetrics + 2 * slot;
      scalars[0] = slot == 0 ? 0.0 : rng.uniform(0.0, 30.0);  // delay
      scalars[1] = rng.uniform(5.0, 60.0);                     // lifetime
    }
    d.add(x, y + 0.02 * rng.normal());
  }
  return d;
}

// The IRFR configuration Gsight deploys (core::deployed_irfr_config): 80
// Extra-Trees, random thresholds, max_features 128.
IncrementalForestConfig deployed_shape_config(TreeKernel kernel) {
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 80;
  cfg.forest.tree.split_mode = SplitMode::kRandom;
  cfg.forest.tree.max_depth = 22;
  cfg.forest.tree.min_samples_leaf = 2;
  cfg.forest.tree.max_features = 128;
  cfg.forest.tree.kernel = kernel;
  return cfg;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TreeConfig tree_config(SplitMode mode, TreeKernel kernel) {
  TreeConfig cfg;
  cfg.split_mode = mode;
  cfg.kernel = kernel;
  cfg.max_features = 3;
  return cfg;
}

class SplitModeEquivalence : public ::testing::TestWithParam<SplitMode> {};

TEST_P(SplitModeEquivalence, ForestTreesBitIdenticalOnTies) {
  stats::Rng data_rng(11);
  const auto data = tie_heavy_data(300, 6, data_rng);
  ForestConfig legacy_cfg;
  legacy_cfg.n_trees = 12;
  legacy_cfg.tree = tree_config(GetParam(), TreeKernel::kLegacy);
  ForestConfig fast_cfg = legacy_cfg;
  fast_cfg.tree.kernel = TreeKernel::kColumnar;

  RandomForestRegressor legacy(legacy_cfg), fast(fast_cfg);
  stats::Rng rng_a(42), rng_b(42);
  legacy.fit(data, rng_a);
  fast.fit(data, rng_b);
  EXPECT_EQ(dump(legacy), dump(fast));

  // Importances feed Figure 8; they must match to the bit as well.
  const auto imp_a = legacy.importance();
  const auto imp_b = fast.importance();
  ASSERT_EQ(imp_a.size(), imp_b.size());
  for (std::size_t i = 0; i < imp_a.size(); ++i) {
    EXPECT_EQ(imp_a[i], imp_b[i]) << "importance[" << i << "]";
  }
}

TEST_P(SplitModeEquivalence, TreeBitIdenticalOnBootstrapMultiset) {
  stats::Rng data_rng(12);
  const auto data = smooth_data(250, 5, data_rng);
  // Bootstrap multiset: repeated indices, unsorted order.
  stats::Rng boot(5);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 400; ++i) {
    rows.push_back(boot.uniform_index(data.size()));
  }
  DecisionTreeRegressor legacy(tree_config(GetParam(), TreeKernel::kLegacy));
  DecisionTreeRegressor fast(tree_config(GetParam(), TreeKernel::kColumnar));
  stats::Rng rng_a(7), rng_b(7);
  legacy.fit(data, rows, rng_a);
  fast.fit(data, rows, rng_b);
  EXPECT_EQ(dump(legacy), dump(fast));
  // The RNG streams must also stay in lockstep (same draw sequence).
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

INSTANTIATE_TEST_SUITE_P(BothModes, SplitModeEquivalence,
                         ::testing::Values(SplitMode::kBest,
                                           SplitMode::kRandom));

TEST(ForestEquivalence, WideFeatureBestSplitFallbackBitIdentical) {
  // Feature count above the presort cap exercises the columnar
  // gather+sort fallback of the kBest path.
  stats::Rng data_rng(13);
  const auto data = smooth_data(80, 600, data_rng);
  TreeConfig legacy_cfg = tree_config(SplitMode::kBest, TreeKernel::kLegacy);
  legacy_cfg.max_features = 0;  // sqrt(600)
  TreeConfig fast_cfg = legacy_cfg;
  fast_cfg.kernel = TreeKernel::kColumnar;
  DecisionTreeRegressor legacy(legacy_cfg), fast(fast_cfg);
  stats::Rng rng_a(21), rng_b(21);
  legacy.fit(data, rng_a);
  fast.fit(data, rng_b);
  EXPECT_EQ(dump(legacy), dump(fast));
}

TEST(ForestEquivalence, IncrementalRefreshesStayBitIdentical) {
  // Several partial_fit rounds: the columnar path appends to the shared
  // ColumnStore across refreshes; the models must never diverge.
  IncrementalForestConfig legacy_cfg;
  legacy_cfg.forest.n_trees = 10;
  legacy_cfg.forest.tree = tree_config(SplitMode::kRandom, TreeKernel::kLegacy);
  IncrementalForestConfig fast_cfg = legacy_cfg;
  fast_cfg.forest.tree.kernel = TreeKernel::kColumnar;
  IncrementalForest legacy(legacy_cfg, 3), fast(fast_cfg, 3);

  stats::Rng data_rng(14);
  for (int round = 0; round < 5; ++round) {
    const auto batch = tie_heavy_data(60, 6, data_rng);
    legacy.partial_fit(batch);
    // Replays the same draws because tie_heavy_data consumed data_rng;
    // rebuild an identical batch from the stored buffer instead.
    const auto view = legacy.buffer();
    Dataset same(batch.feature_count());
    for (std::size_t i = view.size() - batch.size(); i < view.size(); ++i) {
      same.add(view.x(i), view.y(i));
    }
    fast.partial_fit(same);
    EXPECT_EQ(dump(legacy.forest()), dump(fast.forest())) << "round " << round;
  }
}

TEST(ForestEquivalence, OverlapShapedRefreshesStayBitIdentical) {
  // Wide zero-padded rows under the deployed kRandom config: most sampled
  // columns are constant over the buffer, so the columnar kernel skips
  // them while the legacy kernel scans them. Slots 3 and 4 turn live in
  // round 3, clearing their flags mid-stream, and round 4 trains on a
  // capped subsample of the buffer.
  IncrementalForestConfig legacy_cfg = deployed_shape_config(TreeKernel::kLegacy);
  legacy_cfg.forest.n_trees = 12;
  legacy_cfg.max_refit_rows = 200;
  IncrementalForestConfig fast_cfg = legacy_cfg;
  fast_cfg.forest.tree.kernel = TreeKernel::kColumnar;
  IncrementalForest legacy(legacy_cfg, 5), fast(fast_cfg, 5);

  // Slot 3's server rows: padding until round 3.
  const std::size_t slot3 = 3 * kServers * kMetrics;
  stats::Rng data_rng(32);
  for (int round = 1; round <= 4; ++round) {
    const std::size_t live = round < 3 ? 3 : 5;
    const auto batch =
        overlap_shaped_data(60, live, data_rng, /*signed_zeros=*/true);
    legacy.partial_fit(batch);
    fast.partial_fit(batch);
    EXPECT_EQ(dump(legacy.forest()), dump(fast.forest())) << "round " << round;
    EXPECT_EQ(legacy.importance(), fast.importance()) << "round " << round;
    const auto ra = legacy.rng_state();
    const auto rb = fast.rng_state();
    EXPECT_TRUE(std::equal(std::begin(ra.s), std::end(ra.s), std::begin(rb.s)))
        << "round " << round;

    const ColumnStore& cols = fast.buffer().columns();
    std::size_t constant = 0;
    for (std::size_t f = 0; f < cols.feature_count(); ++f) {
      constant += cols.constant(f) ? 1 : 0;
    }
    // Slots 5..9 (server rows and scalars) stay padding throughout.
    EXPECT_GE(constant, 5 * kServers * kMetrics + 10) << "round " << round;
    bool slot3_live = false;
    for (std::size_t f = slot3; f < slot3 + kServers * kMetrics; ++f) {
      slot3_live = slot3_live || !cols.constant(f);
    }
    EXPECT_EQ(slot3_live, round >= 3) << "round " << round;
  }

  // One tree on the final buffer: the per-tree streams must end in
  // lockstep, i.e. no skipped column consumed or saved a draw.
  DecisionTreeRegressor a(legacy_cfg.forest.tree), b(fast_cfg.forest.tree);
  stats::Rng rng_a(8), rng_b(8);
  a.fit(fast.buffer(), rng_a);
  b.fit(fast.buffer(), rng_b);
  EXPECT_EQ(dump(a), dump(b));
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

// Golden digest of the deployed IRFR's serialised forest after one fit
// and three partial_fit rounds on overlap-shaped data. Unlike the
// kernel-vs-kernel tests above this pins the columnar kernel to a fixed
// output, so bit-exactness is guarded independently of the legacy
// reference. A deliberate change to training results must update the
// digest and say why.
TEST(ForestEquivalence, DeployedIrfrGoldenDigest) {
  IncrementalForest model(deployed_shape_config(TreeKernel::kColumnar), 2021);
  stats::Rng data_rng(31);
  model.partial_fit(overlap_shaped_data(160, 3, data_rng));
  for (int round = 0; round < 3; ++round) {
    model.partial_fit(overlap_shaped_data(60, 3 + round, data_rng));
  }
  ASSERT_EQ(model.version(), 4u);
  std::ostringstream out;
  model.forest().save(out);
  EXPECT_EQ(fnv1a(out.str()), 0x0dc6e6e131c3241dull) << std::hex << fnv1a(out.str());
}

TEST(ForestEquivalence, PredictBatchMatchesSinglePredictions) {
  stats::Rng data_rng(15);
  const auto data = smooth_data(400, 8, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 25;
  RandomForestRegressor forest(cfg);
  stats::Rng rng(9);
  forest.fit(data, rng);

  Matrix queries(0, data.feature_count());
  std::vector<double> q(data.feature_count());
  for (int i = 0; i < 64; ++i) {
    for (auto& v : q) v = data_rng.uniform(-2.5, 2.5);
    queries.push_row(q);
  }
  const auto batch = forest.predict_batch(queries);
  ASSERT_EQ(batch.size(), queries.rows());
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    EXPECT_EQ(batch[i], forest.predict(queries.row(i))) << "row " << i;
  }
}

TEST(ForestEquivalence, IncrementalPredictBatchMatchesSingles) {
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 15;
  IncrementalForest model(cfg, 4);
  stats::Rng data_rng(16);
  model.partial_fit(smooth_data(200, 5, data_rng));

  Matrix queries(0, 5);
  std::vector<double> q(5);
  for (int i = 0; i < 32; ++i) {
    for (auto& v : q) v = data_rng.uniform(-2.0, 2.0);
    queries.push_row(q);
  }
  const auto batch = model.predict_batch(queries);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    EXPECT_EQ(batch[i], model.predict(queries.row(i))) << "row " << i;
  }
}

TEST(ForestEquivalence, PredictBatchOnUnfittedForestIsZero) {
  RandomForestRegressor forest;
  Matrix queries(0, 3);
  queries.push_row(std::vector<double>{1.0, 2.0, 3.0});
  const auto out = forest.predict_batch(queries);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0.0);
}

// --- Inference-kernel equivalence -----------------------------------------
// Every traversal path (reference pointer-chase, tree-lane blocked and
// the batched row-lane gather) must agree to the bit: the blocked
// kernels do no arithmetic the reference doesn't (compares and one mean
// reduction in the same tree order), so EXPECT_EQ, not NEAR.

// Per-row tree-lane walk, reduced exactly like predict().
double predict_via_leaves(const RandomForestRegressor& forest,
                          std::span<const double> x) {
  std::vector<double> leaves(forest.blocked().tree_count());
  forest_kernel::leaves(forest.blocked(), x, leaves);
  return forest_kernel::reduce_mean(leaves);
}

TEST(ForestKernelEquivalence, ScalarBlockedMatchesReferenceOnTies) {
  stats::Rng data_rng(18);
  const auto data = tie_heavy_data(300, 6, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 21;  // not a multiple of the lane width: exercises the tail
  RandomForestRegressor forest(cfg);
  stats::Rng rng(44);
  forest.fit(data, rng);

  std::vector<double> q(6);
  for (int i = 0; i < 200; ++i) {
    for (std::size_t f = 0; f < q.size(); ++f) {
      // Tie-heavy queries: values sitting exactly on quantised thresholds.
      q[f] = static_cast<double>(data_rng.uniform_index(5));
    }
    const double ref = forest.predict_reference(q);
    EXPECT_EQ(forest.predict(q), ref) << "predict, row " << i;
    EXPECT_EQ(predict_via_leaves(forest, q), ref) << "leaves, row " << i;
  }
}

TEST(ForestKernelEquivalence, GatherVariantsMatchReferenceBatch) {
  stats::Rng data_rng(19);
  const auto data = smooth_data(350, 7, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 40;
  RandomForestRegressor forest(cfg);
  stats::Rng rng(45);
  forest.fit(data, rng);

  // 67 rows: several full 8-row blocks plus a ragged tail.
  Matrix queries(0, 7);
  std::vector<double> q(7);
  for (int i = 0; i < 67; ++i) {
    for (auto& v : q) v = data_rng.uniform(-2.5, 2.5);
    queries.push_row(q);
  }
  const auto ref = forest.predict_batch_reference(queries);
  std::vector<double> out(queries.rows());
  forest_kernel::gather(forest.blocked(), queries, out);
  EXPECT_EQ(out, ref);
  EXPECT_EQ(forest.predict_batch(queries), ref);
}

TEST(ForestKernelEquivalence, BlockedLayoutInvariants) {
  stats::Rng data_rng(20);
  const auto data = tie_heavy_data(150, 5, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 9;
  RandomForestRegressor forest(cfg);
  stats::Rng rng(46);
  forest.fit(data, rng);

  const BlockedForest& b = forest.blocked();
  ASSERT_EQ(b.tree_count(), 9u);
  ASSERT_EQ(b.depth.size(), 9u);
  ASSERT_EQ(b.value.size(), b.node_count());
  for (std::size_t g = 0; g < b.node_count(); ++g) {
    const auto& node = b.nodes[g];
    if (node.feature == BlockedForest::kLeaf) {
      // Leaves self-loop so parked lanes step harmlessly.
      EXPECT_EQ(node.left, static_cast<std::int32_t>(g));
    } else {
      // BFS lays siblings adjacently: right child is left + 1, and both
      // children live strictly after their parent.
      EXPECT_GT(node.left, static_cast<std::int32_t>(g));
      EXPECT_LT(node.left + 1, static_cast<std::int32_t>(b.node_count()));
    }
  }
}

TEST(ForestKernelEquivalence, EmptyAndUnfittedForests) {
  RandomForestRegressor forest;
  EXPECT_TRUE(forest.blocked().empty());
  Matrix queries(0, 4);
  std::vector<double> none;
  forest_kernel::gather(forest.blocked(), queries, none);
  EXPECT_TRUE(none.empty());
  queries.push_row(std::vector<double>{0.0, 1.0, 2.0, 3.0});
  EXPECT_EQ(forest.predict_batch(queries), std::vector<double>{0.0});
}

TEST(ForestEquivalence, ParallelColumnarTrainingMatchesSerial) {
  // The shared ColumnStore is primed once and read concurrently; a
  // 4-thread fit must equal the single-thread fit bit for bit.
  stats::Rng data_rng(17);
  const auto data = tie_heavy_data(200, 6, data_rng);
  ForestConfig serial_cfg;
  serial_cfg.n_trees = 16;
  serial_cfg.threads = 1;
  ForestConfig parallel_cfg = serial_cfg;
  parallel_cfg.threads = 4;
  RandomForestRegressor serial(serial_cfg), parallel(parallel_cfg);
  stats::Rng rng_a(33), rng_b(33);
  serial.fit(data, rng_a);
  parallel.fit(data, rng_b);
  EXPECT_EQ(dump(serial), dump(parallel));
}

}  // namespace
}  // namespace gsight::ml

// Golden digests of tree training: each test pins the FNV-1a hash of a
// save() dump, the importance bits and the generator right after the fit,
// so splits, tie-breaking, node order and the RNG stream are fixed to the
// bit, not just statistically close. Dumps are hashed because save()
// prints doubles at max_digits10, which round-trips every distinct double
// to a distinct string. The data sets stress the orders the builder must
// keep (ties, duplicate rows, bootstrap multisets, wide feature spaces,
// refreshes, zero-padded overlap codes); see ColumnarBuilder in
// ml/decision_tree.cpp. A deliberate change to training results must
// update the digests and say why. Also covers the batched-inference
// contract: predict_batch must equal N single predict() calls exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
IncrementalForestConfig deployed_shape_config() {
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 80;
  cfg.forest.tree.split_mode = SplitMode::kRandom;
  cfg.forest.tree.max_depth = 22;
  cfg.forest.tree.min_samples_leaf = 2;
  cfg.forest.tree.max_features = 128;
  return cfg;
}

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

// Pins a double vector to the bit, signed zeros included.
std::uint64_t bits_digest(std::span<const double> values) {
  std::vector<std::uint64_t> words(values.size());
  std::transform(values.begin(), values.end(), words.begin(),
                 [](double v) { return std::bit_cast<std::uint64_t>(v); });
  return fnv1a_words(words);
}

std::uint64_t state_digest(const stats::Rng::State& st) {
  return fnv1a_words(st.s);
}

// The pinned outputs of one fit (or one partial_fit round): the save()
// dump, the importance bits, and the generator right after it.
struct Golden {
  std::uint64_t dump;
  std::uint64_t importance;
  std::uint64_t rng;
};

TreeConfig tree_config(SplitMode mode) {
  TreeConfig cfg;
  cfg.split_mode = mode;
  cfg.max_features = 3;
  return cfg;
}

class SplitModeEquivalence : public ::testing::TestWithParam<SplitMode> {
 protected:
  Golden pick(Golden best, Golden random) const {
    return GetParam() == SplitMode::kBest ? best : random;
  }
};

TEST_P(SplitModeEquivalence, ForestTreesBitIdenticalOnTies) {
  stats::Rng data_rng(11);
  const auto data = tie_heavy_data(300, 6, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 12;
  cfg.tree = tree_config(GetParam());

  RandomForestRegressor forest(cfg);
  stats::Rng rng(42);
  forest.fit(data, rng);

  // Importances feed Figure 8; they are pinned to the bit as well.
  const Golden golden =
      pick({0xb8bb241b5b4af345ull, 0x58ce11c03762275dull,
            0xae14e77054359b98ull},
           {0x17af0658ea4c8b6aull, 0x5b139878074c1491ull,
            0xae14e77054359b98ull});
  EXPECT_EQ(fnv1a(dump(forest)), golden.dump);
  EXPECT_EQ(bits_digest(forest.importance()), golden.importance);
  EXPECT_EQ(rng.next(), golden.rng);
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
  DecisionTreeRegressor tree(tree_config(GetParam()));
  stats::Rng rng(7);
  tree.fit(data, rows, rng);

  // The draw after the fit pins the tree's RNG call sequence.
  const Golden golden =
      pick({0xf54fc343a954a728ull, 0x762dd813a8cfcf62ull,
            0xdef55fa3fc997dcbull},
           {0x99beadfa2b873e5aull, 0xadbce2b898be17c3ull,
            0x713d38b0a22985edull});
  EXPECT_EQ(fnv1a(dump(tree)), golden.dump);
  EXPECT_EQ(bits_digest(tree.importance()), golden.importance);
  EXPECT_EQ(rng.next(), golden.rng);
}

INSTANTIATE_TEST_SUITE_P(BothModes, SplitModeEquivalence,
                         ::testing::Values(SplitMode::kBest,
                                           SplitMode::kRandom));

TEST(ForestEquivalence, WideFeatureBestSplitFallbackBitIdentical) {
  // Feature count above the presort cap exercises the per-node
  // gather+sort fallback of the kBest path.
  stats::Rng data_rng(13);
  const auto data = smooth_data(80, 600, data_rng);
  TreeConfig cfg = tree_config(SplitMode::kBest);
  cfg.max_features = 0;  // sqrt(600)
  DecisionTreeRegressor tree(cfg);
  stats::Rng rng(21);
  tree.fit(data, rng);

  EXPECT_EQ(fnv1a(dump(tree)), 0xb3374f47ce25e9d2ull);
  EXPECT_EQ(bits_digest(tree.importance()), 0x0b6527495403e0aaull);
  EXPECT_EQ(rng.next(), 0x5e5cebb1e1cfc19cull);
}

TEST(ForestEquivalence, IncrementalRefreshesStayBitIdentical) {
  // Several partial_fit rounds: each refresh appends to the shared
  // ColumnStore; every round's model is pinned.
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 10;
  cfg.forest.tree = tree_config(SplitMode::kRandom);
  IncrementalForest model(cfg, 3);

  const Golden goldens[] = {
      {0x01829491d9fc4fecull, 0xc1872bb46fea255eull,
       0x66adf7bc6b4a45d5ull},
      {0x99b66dd3d3d2ffd8ull, 0x52f53f86ac03880cull,
       0xa130583d59e69b5aull},
      {0xdfead014f1827597ull, 0x0626de169f9d4979ull,
       0x06484abd5316f3a0ull},
      {0x6d50a2982d174659ull, 0xf7218536131d6737ull,
       0x9892c9309ded49e8ull},
      {0x5025d05b995e6162ull, 0x999106022c859479ull,
       0x346d217122454450ull}};
  stats::Rng data_rng(14);
  for (int round = 0; round < 5; ++round) {
    model.partial_fit(tie_heavy_data(60, 6, data_rng));

    const Golden& golden = goldens[round];
    EXPECT_EQ(fnv1a(dump(model.forest())), golden.dump) << "round " << round;
    EXPECT_EQ(bits_digest(model.importance()), golden.importance)
        << "round " << round;
    EXPECT_EQ(state_digest(model.rng_state()), golden.rng)
        << "round " << round;
  }
}

TEST(ForestEquivalence, OverlapShapedRefreshesStayBitIdentical) {
  // Wide zero-padded rows under the deployed kRandom config: most sampled
  // columns are constant over the buffer, and the builder skips them.
  // Slots 3 and 4 turn live in round 3, clearing their flags mid-stream,
  // and round 4 trains on a capped subsample of the buffer.
  IncrementalForestConfig cfg = deployed_shape_config();
  cfg.forest.n_trees = 12;
  cfg.max_refit_rows = 200;
  IncrementalForest model(cfg, 5);

  const Golden goldens[] = {
      {0x8c108a686ddf090bull, 0x223e4952b98af822ull,
       0x7186fc8cf5ea8ea3ull},
      {0xd475a12d18f093b6ull, 0x7d464032b32ff60dull,
       0x155c9c71a97a62feull},
      {0xfa0c2a39561c00dbull, 0xaee7f44d8ed6bdbfull,
       0xf35d027cb2c46696ull},
      {0xf28c4e3f25ead043ull, 0xd133ce38d749aa70ull,
       0x241b9afd7b5047b5ull}};
  // Slot 3's server rows: padding until round 3.
  const std::size_t slot3 = 3 * kServers * kMetrics;
  stats::Rng data_rng(32);
  for (int round = 1; round <= 4; ++round) {
    const std::size_t live = round < 3 ? 3 : 5;
    model.partial_fit(
        overlap_shaped_data(60, live, data_rng, /*signed_zeros=*/true));

    const Golden& golden = goldens[round - 1];
    EXPECT_EQ(fnv1a(dump(model.forest())), golden.dump) << "round " << round;
    EXPECT_EQ(bits_digest(model.importance()), golden.importance)
        << "round " << round;
    EXPECT_EQ(state_digest(model.rng_state()), golden.rng)
        << "round " << round;

    const ColumnStore& cols = model.buffer().columns();
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

  // One tree on the final buffer: the draw after the fit pins the
  // per-tree stream, so a skipped column that consumed or saved a draw
  // would show.
  DecisionTreeRegressor tree(cfg.forest.tree);
  stats::Rng rng(8);
  tree.fit(model.buffer(), rng);

  EXPECT_EQ(fnv1a(dump(tree)), 0x68b031a99de6f7e9ull);
  EXPECT_EQ(bits_digest(tree.importance()), 0xd2ea5e2a75b652a0ull);
  EXPECT_EQ(rng.next(), 0x475e8d82864c2aa5ull);
}

// Golden digest of the deployed IRFR's serialised forest after one fit
// and three partial_fit rounds on overlap-shaped data.
TEST(ForestEquivalence, DeployedIrfrGoldenDigest) {
  IncrementalForest model(deployed_shape_config(), 2021);
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

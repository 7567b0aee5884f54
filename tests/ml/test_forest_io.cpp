#include "ml/forest_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ml/metrics.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {
namespace {

Dataset make_data(std::size_t n, stats::Rng& rng) {
  Dataset d(4);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(-2.0, 2.0);
    d.add(std::vector<double>{a, b, rng.uniform(), rng.uniform()},
          2.0 * a - b + 0.3 * a * b);
  }
  return d;
}

TEST(ForestIo, DatasetRoundTrip) {
  stats::Rng rng(1);
  const auto original = make_data(50, rng);
  std::stringstream buffer;
  write_dataset(buffer, original);
  const auto loaded = read_dataset(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.feature_count(), original.feature_count());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.y(i), original.y(i));
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(loaded.x(i)[j], original.x(i)[j]);
    }
  }
}

TEST(ForestIo, TreeRoundTripPredictsIdentically) {
  stats::Rng rng(2);
  const auto data = make_data(400, rng);
  TreeConfig cfg;
  cfg.max_features = 4;
  DecisionTreeRegressor tree(cfg);
  tree.fit(data, rng);
  std::stringstream buffer;
  tree.save(buffer);
  DecisionTreeRegressor loaded;
  loaded.load(buffer);
  EXPECT_EQ(loaded.node_count(), tree.node_count());
  for (std::size_t i = 0; i < 50; ++i) {
    const auto x = data.x(i);
    EXPECT_DOUBLE_EQ(loaded.predict(x), tree.predict(x)) << i;
  }
  EXPECT_EQ(loaded.importance(), tree.importance());
}

TEST(ForestIo, ForestRoundTripPredictsIdentically) {
  stats::Rng rng(3);
  const auto data = make_data(500, rng);
  ForestConfig cfg;
  cfg.n_trees = 20;
  RandomForestRegressor forest(cfg);
  forest.fit(data, rng);
  std::stringstream buffer;
  write_forest(buffer, forest);
  const auto loaded = read_forest(buffer);
  EXPECT_EQ(loaded.tree_count(), forest.tree_count());
  for (std::size_t i = 0; i < 50; ++i) {
    const auto x = data.x(i);
    EXPECT_DOUBLE_EQ(loaded.predict(x), forest.predict(x)) << i;
  }
  EXPECT_EQ(loaded.importance(), forest.importance());
}

TEST(ForestIo, IncrementalForestSurvivesRestart) {
  stats::Rng rng(4);
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 20;
  cfg.refresh_fraction = 0.5;
  IncrementalForest model(cfg, 7);
  model.partial_fit(make_data(300, rng));

  const std::string path = "/tmp/gsight_irfr_test.txt";
  save_incremental_forest(model, path);
  auto loaded = load_incremental_forest(path);
  std::remove(path.c_str());

  // Identical predictions after reload...
  const auto probe = make_data(30, rng);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.predict(probe.x(i)), model.predict(probe.x(i)));
  }
  EXPECT_EQ(loaded.samples_seen(), model.samples_seen());
  // ...and the restored model keeps LEARNING (buffer intact): after more
  // batches its error on fresh data is reasonable.
  loaded.partial_fit(make_data(300, rng));
  EXPECT_EQ(loaded.samples_seen(), 600u);
  const auto test = make_data(200, rng);
  EXPECT_GT(r2(test.targets(), [&] {
              std::vector<double> p;
              for (std::size_t i = 0; i < test.size(); ++i) {
                p.push_back(loaded.predict(test.x(i)));
              }
              return p;
            }()),
            0.8);
}

TEST(ForestIo, VersionStampCountsUpdateRoundsAndRoundTrips) {
  stats::Rng rng(8);
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 10;
  IncrementalForest model(cfg, 11);
  EXPECT_EQ(model.version(), 0u);  // cold model: nothing published yet
  model.partial_fit(make_data(100, rng));
  EXPECT_EQ(model.version(), 1u);
  model.partial_fit(make_data(60, rng));
  model.partial_fit(make_data(60, rng));
  EXPECT_EQ(model.version(), 3u);
  // Empty batches are no-ops and must not mint a new version.
  model.partial_fit(Dataset(4));
  EXPECT_EQ(model.version(), 3u);

  std::stringstream buffer;
  save_incremental_forest(model, buffer);
  const auto loaded = load_incremental_forest(buffer);
  EXPECT_EQ(loaded.version(), 3u);
}

// The mid-stream contract: saving after k update rounds and resuming from
// the file is indistinguishable from never having stopped. This is what
// makes the serving layer's persisted models trustworthy — an operator
// can snapshot, restart, and keep folding observations with bit-identical
// results. Requires the updater RNG stream to survive the round trip.
TEST(ForestIo, MidStreamReloadContinuesBitIdentically) {
  stats::Rng data_rng(9);
  std::vector<Dataset> batches;
  for (int i = 0; i < 6; ++i) batches.push_back(make_data(80, data_rng));

  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 12;
  cfg.refresh_fraction = 0.5;  // make refreshes (and thus RNG draws) matter
  IncrementalForest uninterrupted(cfg, 13);
  IncrementalForest checkpointed(cfg, 13);
  for (int i = 0; i < 3; ++i) {
    uninterrupted.partial_fit(batches[i]);
    checkpointed.partial_fit(batches[i]);
  }
  // Checkpoint after k = 3 rounds, reload, continue on the copy.
  std::stringstream buffer;
  save_incremental_forest(checkpointed, buffer);
  auto resumed = load_incremental_forest(buffer);
  EXPECT_EQ(resumed.version(), 3u);
  for (int i = 3; i < 6; ++i) {
    uninterrupted.partial_fit(batches[i]);
    resumed.partial_fit(batches[i]);
  }
  EXPECT_EQ(resumed.version(), uninterrupted.version());
  EXPECT_EQ(resumed.samples_seen(), uninterrupted.samples_seen());
  const auto probe = make_data(50, data_rng);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    // Exact equality: the resumed model must be bit-identical, not close.
    EXPECT_EQ(resumed.predict(probe.x(i)), uninterrupted.predict(probe.x(i)))
        << "diverged at probe " << i;
  }
}

TEST(ForestIo, RejectsCorruptRngState) {
  stats::Rng rng(10);
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 4;
  IncrementalForest model(cfg, 17);
  model.partial_fit(make_data(60, rng));
  std::stringstream buffer;
  save_incremental_forest(model, buffer);
  // Zero out the serialized xoshiro words: a degenerate (stuck) stream
  // that can only come from corruption must be rejected on load.
  std::string text = buffer.str();
  const auto rng_pos = text.find("\nrng ");
  ASSERT_NE(rng_pos, std::string::npos);
  const auto line_end = text.find('\n', rng_pos + 1);
  text.replace(rng_pos, line_end - rng_pos, "\nrng 0 0 0 0 0 0");
  std::stringstream corrupt(text);
  EXPECT_THROW(load_incremental_forest(corrupt), std::runtime_error);
}

TEST(ForestIo, RejectsCorruptInput) {
  std::stringstream garbage("this is not a forest");
  RandomForestRegressor forest;
  EXPECT_THROW(forest.load(garbage), std::runtime_error);
  std::stringstream garbage2("dataset nope");
  EXPECT_THROW(read_dataset(garbage2), std::runtime_error);
  EXPECT_THROW(load_incremental_forest("/tmp/missing_gsight_model.txt"),
               std::runtime_error);
}

// Header layout (RandomForestRegressor::save):
//   forest <tree_count> <feature_count> <n_trees> <bootstrap_fraction>
//          <max_depth> <min_samples_split> <min_samples_leaf>
//          <max_features> <split_mode>
TEST(ForestIo, RejectsHostileHeaders) {
  const auto expect_rejects = [](const std::string& header) {
    std::stringstream in(header);
    RandomForestRegressor forest;
    EXPECT_THROW(forest.load(in), std::runtime_error) << header;
  };
  // Implausible tree count must fail before any multi-GB allocation.
  expect_rejects("forest 99999999999 4 20 0.8 10 2 1 4 0\n");
  expect_rejects("forest 20 4 99999999999 0.8 10 2 1 4 0\n");
  // Implausible feature count.
  expect_rejects("forest 20 99999999999 20 0.8 10 2 1 4 0\n");
  // split_mode outside the enum range would be UB after static_cast.
  expect_rejects("forest 2 4 2 0.8 10 2 1 4 7\n");
  expect_rejects("forest 2 4 2 0.8 10 2 1 4 -1\n");
  // bootstrap_fraction must be finite and in (0, 1].
  expect_rejects("forest 2 4 2 nan 10 2 1 4 0\n");
  expect_rejects("forest 2 4 2 inf 10 2 1 4 0\n");
  expect_rejects("forest 2 4 2 1.5 10 2 1 4 0\n");
  expect_rejects("forest 2 4 2 0.0 10 2 1 4 0\n");
  expect_rejects("forest 2 4 2 -0.5 10 2 1 4 0\n");
  // Degenerate tree configs.
  expect_rejects("forest 2 4 2 0.8 0 2 1 4 0\n");   // max_depth == 0
  expect_rejects("forest 2 4 2 0.8 10 1 1 4 0\n");  // min_samples_split < 2
  expect_rejects("forest 2 4 2 0.8 10 2 0 4 0\n");  // min_samples_leaf == 0
  // Truncated header.
  expect_rejects("forest 2 4\n");
  expect_rejects("");
}

TEST(ForestIo, FailedLoadLeavesForestUsable) {
  stats::Rng rng(5);
  const auto data = make_data(200, rng);
  ForestConfig cfg;
  cfg.n_trees = 5;
  RandomForestRegressor forest(cfg);
  forest.fit(data, rng);
  const double before = forest.predict(data.x(0));

  std::stringstream corrupt("forest 2 4 2 0.8 10 2 1 4 7\n");
  EXPECT_THROW(forest.load(corrupt), std::runtime_error);
  // Validation happens before any state is committed, so the forest
  // still answers with its pre-load model.
  EXPECT_EQ(forest.tree_count(), 5u);
  EXPECT_DOUBLE_EQ(forest.predict(data.x(0)), before);
}

// Tree body layout (DecisionTreeRegressor::save):
//   tree <node_count> <feature_count>
//   <feature> <threshold> <left> <right> <value>   (one line per node,
//                                                    preorder; leaves carry
//                                                    feature 4294967295)
//   <importance...>
TEST(ForestIo, RejectsHostileTreeBodies) {
  const std::string header = "forest 1 4 1 0.8 10 2 1 4 0\n";
  const std::string leaf = "4294967295 0 0 0 ";
  const auto body = [&](const std::string& root) {
    return "tree 3 4\n" + root + "\n" + leaf + "1.5\n" + leaf +
           "2.5\n0.5 0 0 0\n";
  };
  {
    // The well-formed body the corruptions below start from.
    std::stringstream in(header + body("2 0.5 1 2 0"));
    RandomForestRegressor forest;
    forest.load(in);
    EXPECT_EQ(forest.predict(std::vector<double>{0, 0, 0.0, 0}), 1.5);
    EXPECT_EQ(forest.predict(std::vector<double>{0, 0, 1.0, 0}), 2.5);
  }
  const auto expect_rejects = [&](const std::string& text) {
    std::stringstream in(header + text);
    RandomForestRegressor forest;
    EXPECT_THROW(forest.load(in), std::runtime_error) << text;
  };
  // Node counts: implausible (no up-front allocation), zero, truncated.
  expect_rejects("tree 99999999999 4\n" + leaf + "1\n0 0 0 0\n");
  expect_rejects("tree 4000000000 4\n" + leaf + "1\n0 0 0 0\n");
  expect_rejects("tree 0 4\n0 0 0 0\n");
  expect_rejects("tree 3 4\n2 0.5 1 2 0\n" + leaf + "1.5\n");
  // Child indices: past the node count, back to the root (a cycle), onto
  // the parent itself, and one node claimed twice.
  expect_rejects(body("2 0.5 1 3 0"));
  expect_rejects(body("2 0.5 1 99999 0"));
  expect_rejects(body("2 0.5 0 2 0"));
  expect_rejects(body("2 0.5 1 1 0"));
  expect_rejects("tree 3 4\n2 0.5 1 2 0\n0 0.5 2 2 0\n" + leaf +
                 "1\n0 0 0 0\n");
  // An unreachable node: the root is a leaf, nodes 1-2 have no parent.
  expect_rejects(body(leaf + "0"));
  // Split feature outside the tree's feature count.
  expect_rejects(body("4 0.5 1 2 0"));
  expect_rejects(body("99 0.5 1 2 0"));
  // Importance length: short, and not the forest's feature count.
  expect_rejects("tree 3 4\n2 0.5 1 2 0\n" + leaf + "1.5\n" + leaf +
                 "2.5\n0.5 0\n");
  expect_rejects("tree 3 5\n2 0.5 1 2 0\n" + leaf + "1.5\n" + leaf +
                 "2.5\n0.5 0 0 0 0\n");
  expect_rejects("tree 1 9999999\n" + leaf + "1\n");
}

TEST(ForestIo, RejectsHostileDatasetShapes) {
  const auto expect_rejects = [](const std::string& text) {
    std::stringstream in(text);
    EXPECT_THROW(read_dataset(in), std::runtime_error) << text;
  };
  // Implausible widths and lengths fail before any allocation.
  expect_rejects("dataset 1 99999999999\n");
  expect_rejects("dataset 99999999999 4\n");
  expect_rejects("dataset 2 4\n1 2 3 4 5\n");  // truncated
}

TEST(ForestIo, FailedBodyLoadLeavesForestUsable) {
  stats::Rng rng(12);
  const auto data = make_data(200, rng);
  ForestConfig cfg;
  cfg.n_trees = 5;
  cfg.tree.max_depth = 12;
  RandomForestRegressor forest(cfg);
  forest.fit(data, rng);
  const double before = forest.predict(data.x(0));
  const auto importance = forest.importance();

  // A valid header for a different 2-tree forest, whose first tree body
  // parses and whose second is cut short.
  ForestConfig other_cfg;
  other_cfg.n_trees = 2;
  RandomForestRegressor other(other_cfg);
  other.fit(make_data(100, rng), rng);
  std::stringstream saved;
  other.save(saved);
  std::string text = saved.str();
  const auto second = text.find("tree ", text.find("tree ") + 1);
  ASSERT_NE(second, std::string::npos);
  std::stringstream corrupt(text.substr(0, second + 20));
  EXPECT_THROW(forest.load(corrupt), std::runtime_error);

  // Nothing was committed: same trees, config, importances, predictions.
  EXPECT_EQ(forest.tree_count(), 5u);
  EXPECT_EQ(forest.config().n_trees, 5u);
  EXPECT_EQ(forest.config().tree.max_depth, 12u);
  EXPECT_EQ(forest.importance(), importance);
  EXPECT_EQ(forest.predict(data.x(0)), before);
}

TEST(ForestIo, LoadPreservesRuntimeThreadKnob) {
  stats::Rng rng(6);
  const auto data = make_data(150, rng);
  ForestConfig save_cfg;
  save_cfg.n_trees = 4;
  RandomForestRegressor source(save_cfg);
  source.fit(data, rng);
  std::stringstream buffer;
  source.save(buffer);

  ForestConfig load_cfg;
  load_cfg.threads = 3;  // runtime knob: must survive load
  RandomForestRegressor loaded(load_cfg);
  loaded.load(buffer);
  EXPECT_EQ(loaded.config().threads, 3u);
  EXPECT_EQ(loaded.tree_count(), 4u);
}

}  // namespace
}  // namespace gsight::ml

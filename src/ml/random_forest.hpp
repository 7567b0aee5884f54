// Bagged random-forest regressor (Breiman) with impurity-based feature
// importance (Figure 8) and thread-pool-parallel training. This is the
// batch core reused by the incremental wrapper (IRFR) that Gsight deploys.
// Inference runs over the blocked breadth-first layout of
// ml/forest_kernel.hpp: predict() advances kLaneWidth trees per step over
// one query row, predict_batch() dispatches wide batches to the row-lane
// gather kernel (the access pattern GsightScheduler::sla_ok generates
// thousands of times per placement). Every kernel is bit-identical to the
// reference walk kept in predict_reference() — enforced by
// tests/ml/test_forest_equivalence.cpp.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/forest_kernel.hpp"

namespace gsight::ml {

struct ForestConfig {
  std::size_t n_trees = 100;
  TreeConfig tree;
  /// Bootstrap-sample size as a fraction of the training set.
  double bootstrap_fraction = 1.0;
  /// Threads for fitting; 0 = shared pool default.
  std::size_t threads = 0;
};

class RandomForestRegressor {
 public:
  explicit RandomForestRegressor(ForestConfig config = {}) : config_(config) {}

  void fit(const Dataset& data, stats::Rng& rng);
  double predict(std::span<const double> x) const;
  /// One prediction per row of `xs`, bit-identical to calling predict()
  /// on each row. Narrow batches run the tree-lane blocked kernel per
  /// row; batches of forest_kernel::kGatherMinRows rows or more take the
  /// row-lane gather path, where each tree's node block stays
  /// cache-resident while the batch streams through it.
  std::vector<double> predict_batch(const Matrix& xs) const;
  /// Allocation-free variant: resizes `out` to xs.rows() (reusing its
  /// capacity) and writes predictions in place — the serve hot path.
  void predict_batch(const Matrix& xs, std::vector<double>& out) const;

  /// Reference kernel: the plain one-node-at-a-time walk over the
  /// flattened arrays. The golden implementation every blocked kernel
  /// must match bit for bit; not used on hot paths.
  double predict_reference(std::span<const double> x) const;
  std::vector<double> predict_batch_reference(const Matrix& xs) const;
  bool fitted() const { return !trees_.empty(); }
  std::size_t tree_count() const { return trees_.size(); }
  /// The fitted trees (read-only; benchmarks compare per-tree walks
  /// against the flattened traversal).
  std::span<const DecisionTreeRegressor> trees() const { return trees_; }
  /// The blocked breadth-first inference layout (rebuilt after every
  /// fit/refresh/load; benchmarks and equivalence tests drive the
  /// forest_kernel entry points on it directly).
  const BlockedForest& blocked() const { return blocked_; }

  /// Impurity importance, normalised to sum to 1 (zeros if unfitted).
  std::vector<double> importance() const;

  /// Retrain `count` randomly chosen trees on fresh bootstraps of `data`
  /// (the incremental-update primitive; no-op count==0). If the forest is
  /// unfitted this behaves like fit().
  void refresh_trees(const Dataset& data, std::size_t count, stats::Rng& rng);

  const ForestConfig& config() const { return config_; }
  /// Serialise / restore the fitted forest (trees + config).
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  void fit_one(const Dataset& data, std::size_t slot, std::uint64_t seed);
  /// Rebuild the flattened inference buffer from trees_ (after any
  /// training or load).
  void rebuild_flat();
  double traverse(std::size_t tree, std::span<const double> x) const;

  ForestConfig config_;
  std::vector<DecisionTreeRegressor> trees_;
  std::size_t feature_count_ = 0;
  /// All trees' node arrays back to back; tree t occupies
  /// [flat_offsets_[t], flat_offsets_[t + 1]) with tree-local child links.
  std::vector<DecisionTreeRegressor::Node> flat_nodes_;
  std::vector<std::size_t> flat_offsets_;
  /// Breadth-first SoA mirror of flat_nodes_ for the blocked kernels.
  BlockedForest blocked_;
};

}  // namespace gsight::ml

// CART regression tree: variance-reduction splits, depth / leaf-size
// stopping rules, and per-feature random subsampling at each split (the
// randomness that, together with bagging, makes the forest robust to the
// high-dimensional overlap-coded feature vectors — §3.4 of the paper).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {

/// How candidate thresholds are chosen at a split.
///   kBest   — exhaustive scan over sorted feature values (classic CART);
///             most accurate, O(n log n) per feature per node.
///   kRandom — one uniform-random threshold per candidate feature
///             (Extra-Trees style); O(n) per feature per node. Used for the
///             2 580-dimensional overlap-coded vectors where exhaustive
///             scanning would dominate training time.
enum class SplitMode { kBest, kRandom };

struct TreeConfig {
  std::size_t max_depth = 24;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
  /// Features examined per split; 0 means sqrt(feature_count).
  std::size_t max_features = 0;
  SplitMode split_mode = SplitMode::kBest;
};

class DecisionTreeRegressor {
 public:
  /// Flat tree node. Public so RandomForestRegressor can concatenate the
  /// node arrays of all trees into one cache-friendly inference buffer.
  struct Node {
    // Leaf when feature == kLeaf; then `value` is the prediction.
    static constexpr std::uint32_t kLeaf = 0xFFFFFFFFu;
    std::uint32_t feature = kLeaf;
    double threshold = 0.0;
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    double value = 0.0;
  };

  explicit DecisionTreeRegressor(TreeConfig config = {}) : config_(config) {}

  /// Train on the rows of `data` selected by `rows` (with repetition
  /// allowed, so bootstrap samples pass their index multisets directly).
  void fit(const Dataset& data, std::span<const std::size_t> rows,
           stats::Rng& rng);
  /// Train on all rows.
  void fit(const Dataset& data, stats::Rng& rng);

  double predict(std::span<const double> x) const;
  bool fitted() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;
  /// The flat node array (root at index 0).
  std::span<const Node> nodes() const { return nodes_; }

  /// Sum of weighted variance reductions contributed by each feature
  /// (unnormalised impurity importance).
  const std::vector<double>& importance() const { return importance_; }

  /// Serialise / restore the fitted tree (line-oriented text; see
  /// ml/forest_io.hpp). Throws std::runtime_error on malformed input.
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  TreeConfig config_;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace gsight::ml

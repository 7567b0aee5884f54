#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace gsight::ml {

namespace {

struct SplitCandidate {
  std::size_t feature = 0;
  double threshold = 0.0;
  double gain = -1.0;  // variance reduction * node weight
};

// ---------------------------------------------------------------------------
// ColumnarBuilder: grows one tree depth first, reading feature values from
// the dataset's feature-major ColumnStore with unit stride.
//
// Float accumulation is order sensitive and every kRandom threshold is an
// RNG draw, so these orders are part of the output. The golden digests in
// tests/ml/test_forest_equivalence.cpp pin them:
//  * per-node accumulation: a node's sum and sum of squares add its ys in
//    the order its segment of `pos_` holds;
//  * the partition permutation: a split applies std::partition to the
//    node's segment of `pos_` with the goes-left predicate, and each child
//    inherits its part of that (unstable) permutation;
//  * the (x, y) presort comparator: kBest visits a node's (x, y) pairs in
//    lexicographic order, ties in x by ascending y. Each feature's index
//    list is sorted once per tree with that comparator and then
//    stable-partitioned down the recursion, so its restriction to any
//    node is that node's sorted sequence. Above kPresortMaxFeatures the
//    lists would dominate memory (d·n indices), so wide-feature kBest
//    trees gather and sort (x, y) pairs per node instead, in the same
//    order;
//  * the RNG call sequence: one sample_without_replacement(d, k) per node
//    that may split, then for kRandom one uniform(lo, hi) per sampled
//    feature that varies over the node, in sample order.
//
// Constant- and zero-column skip: after the draw, each node drops from its
// feature sample every candidate whose column the ColumnStore flags as
// constant over the dataset, and every candidate whose column is == 0.0
// at all of the node's rows (its nonzero bitmap ANDed with the node's
// row bitmap is empty). The kRandom prefetch therefore targets the next
// column that will actually be read. The skip changes no tree: such a
// column holds one value at this node (±0.0 compare equal), where both
// split searches would return {} (lo == hi, front == back) without
// drawing from the RNG, and {} never beats `best`. A NaN sets its row's
// nonzero bit, so a column with a NaN at the node is always scanned. In
// the zero-padded overlap code this skips most of the sampled columns.
class ColumnarBuilder {
 public:
  using Node = DecisionTreeRegressor::Node;

  /// Presorted index lists are kept only up to this feature count; the
  /// paper-scale 2 580-dim overlap codes train with kRandom, which never
  /// sorts at all.
  static constexpr std::size_t kPresortMaxFeatures = 512;

  ColumnarBuilder(const Dataset& data, const TreeConfig& config,
                  std::vector<Node>& nodes, std::vector<double>& importance,
                  stats::Rng& rng)
      : data_(data),
        cols_(data.columns()),
        config_(config),
        nodes_(nodes),
        importance_(importance),
        rng_(rng) {}

  void run(std::span<const std::size_t> rows) {
    const std::size_t n = rows.size();
    sample_row_.assign(rows.begin(), rows.end());
    ys_.resize(n);
    for (std::size_t p = 0; p < n; ++p) ys_[p] = data_.y(rows[p]);
    pos_.resize(n);
    std::iota(pos_.begin(), pos_.end(), std::uint32_t{0});
    left_mask_.assign(n, 0);
    random_mode_ = config_.split_mode == SplitMode::kRandom;
    if (random_mode_) {
      node_ys_.resize(n);
      node_rows_.resize(n);
      vals_.resize(n);
      sel_.resize(n);
    }
    node_bits_.assign(cols_.bitmap_words(), 0);
    node_words_.clear();
    presorted_ = config_.split_mode == SplitMode::kBest &&
                 data_.feature_count() <= kPresortMaxFeatures;
    if (presorted_) presort();
    build(0, n, 0);
  }

 private:
  double xval(std::size_t feature, std::uint32_t p) const {
    return cols_.column(feature)[sample_row_[p]];
  }

  // Set the node's dataset rows in node_bits_, listing each word the
  // first time one of its bits is set.
  void mark_node_rows(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = sample_row_[pos_[i]];
      std::uint64_t& word = node_bits_[r / 64];
      if (word == 0) node_words_.push_back(static_cast<std::uint32_t>(r / 64));
      word |= std::uint64_t{1} << (r % 64);
    }
  }

  void clear_node_rows() {
    for (const std::uint32_t w : node_words_) node_bits_[w] = 0;
    node_words_.clear();
  }

  // True when column `feature` is == 0.0 at every marked row.
  bool zero_at_node(std::size_t feature) const {
    const std::uint64_t* bits = cols_.nonzero_bits(feature);
    for (const std::uint32_t w : node_words_) {
      if ((bits[w] & node_bits_[w]) != 0) return false;
    }
    return true;
  }

  // Sort each feature's index list once for the whole tree, by (x, y) —
  // the order std::sort of (x, y) pairs gives at every node.
  void presort() {
    const std::size_t d = data_.feature_count();
    const std::size_t n = pos_.size();
    sorted_.resize(d * n);
    scratch_.resize(n);
    for (std::size_t f = 0; f < d; ++f) {
      std::uint32_t* seg = sorted_.data() + f * n;
      std::iota(seg, seg + n, std::uint32_t{0});
      const auto col = cols_.column(f);
      std::sort(seg, seg + n, [&](std::uint32_t a, std::uint32_t b) {
        const double xa = col[sample_row_[a]];
        const double xb = col[sample_row_[b]];
        if (xa != xb) return xa < xb;
        return ys_[a] < ys_[b];
      });
    }
  }

  // The kBest scan over a node's n (x, y) pairs in (x, y) order, read
  // through x_at(i) and y_at(i): totals, then prefix sums of y and y² in
  // that order, maximising variance reduction at each boundary between
  // distinct x values.
  template <typename XAt, typename YAt>
  static SplitCandidate best_split_scan(std::size_t n, std::size_t feature,
                                        std::size_t min_leaf, XAt x_at,
                                        YAt y_at) {
    if (x_at(0) == x_at(n - 1)) return {};  // constant feature

    double total_sum = 0.0, total_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double y = y_at(i);
      total_sum += y;
      total_sq += y * y;
    }
    const double dn = static_cast<double>(n);
    const double parent_sse = total_sq - total_sum * total_sum / dn;

    SplitCandidate best;
    best.feature = feature;
    double left_sum = 0.0, left_sq = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double y = y_at(i);
      left_sum += y;
      left_sq += y * y;
      if (x_at(i) == x_at(i + 1)) continue;  // can't split inside ties
      const std::size_t nl = i + 1;
      const std::size_t nr = n - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const double sse =
          (left_sq - left_sum * left_sum / static_cast<double>(nl)) +
          (right_sq - right_sum * right_sum / static_cast<double>(nr));
      const double gain = parent_sse - sse;
      if (gain > best.gain) {
        best.gain = gain;
        best.threshold = 0.5 * (x_at(i) + x_at(i + 1));
      }
    }
    return best;
  }

  // kBest over a presorted segment: the sort is already done.
  SplitCandidate best_split_presorted(std::size_t begin, std::size_t end,
                                      std::size_t feature,
                                      std::size_t min_leaf) const {
    const std::uint32_t* seg = sorted_.data() + feature * pos_.size() + begin;
    const auto col = cols_.column(feature);
    return best_split_scan(
        end - begin, feature, min_leaf,
        [&](std::size_t i) { return col[sample_row_[seg[i]]]; },
        [&](std::size_t i) { return ys_[seg[i]]; });
  }

  // kBest fallback for wide feature spaces: gather the node's (x, y)
  // pairs from the feature column and sort them per node.
  SplitCandidate best_split_gathered(std::size_t begin, std::size_t end,
                                     std::size_t feature,
                                     std::size_t min_leaf) const {
    const auto col = cols_.column(feature);
    thread_local std::vector<std::pair<double, double>> vy;  // (x_f, y)
    vy.clear();
    vy.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t p = pos_[i];
      vy.emplace_back(col[sample_row_[p]], ys_[p]);
    }
    std::sort(vy.begin(), vy.end());
    return best_split_scan(
        vy.size(), feature, min_leaf,
        [&](std::size_t i) { return vy[i].first; },
        [&](std::size_t i) { return vy[i].second; });
  }

  // Extra-Trees split: one uniform threshold in (min, max) of the feature
  // over this node's rows, scored in one pass. Shaped around what bounds
  // it (FP dependency chains and a ~50% mispredicted branch, not reads):
  //  * node totals come from build(), computed once per node rather than
  //    once per candidate feature;
  //  * column values gather into a contiguous scratch while min/max runs
  //    over four independent lanes — min/max are associative, and a ±0.0
  //    representative difference is invisible through lo == hi and
  //    rng.uniform(lo, hi), so the lane split cannot change the tree;
  //  * the left-side ys compact branchlessly in node order and are then
  //    summed sequentially, in node order.
  SplitCandidate random_split(std::size_t begin, std::size_t end,
                              std::size_t feature, std::size_t min_leaf,
                              double total_sum, double total_sq,
                              double parent_sse, const double* next_col) {
    const double* __restrict col = cols_.column(feature).data();
    const std::uint32_t* __restrict rows = node_rows_.data() + begin;
    const std::size_t n = end - begin;
    double* __restrict vals = vals_.data();
    // One fused pass: gather this feature's values, track min/max over
    // four independent lanes, and request the next candidate feature's
    // lines — at deep nodes the scan is latency-bound on cold column
    // reads, not on arithmetic.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double lo0 = kInf, lo1 = kInf, lo2 = kInf, lo3 = kInf;
    double hi0 = -kInf, hi1 = -kInf, hi2 = -kInf, hi3 = -kInf;
    std::size_t i = 0;
    if (next_col != nullptr) {
      for (; i + 4 <= n; i += 4) {
        __builtin_prefetch(next_col + rows[i]);
        __builtin_prefetch(next_col + rows[i + 1]);
        __builtin_prefetch(next_col + rows[i + 2]);
        __builtin_prefetch(next_col + rows[i + 3]);
        const double v0 = col[rows[i]];
        const double v1 = col[rows[i + 1]];
        const double v2 = col[rows[i + 2]];
        const double v3 = col[rows[i + 3]];
        vals[i] = v0;
        vals[i + 1] = v1;
        vals[i + 2] = v2;
        vals[i + 3] = v3;
        lo0 = std::min(lo0, v0);
        lo1 = std::min(lo1, v1);
        lo2 = std::min(lo2, v2);
        lo3 = std::min(lo3, v3);
        hi0 = std::max(hi0, v0);
        hi1 = std::max(hi1, v1);
        hi2 = std::max(hi2, v2);
        hi3 = std::max(hi3, v3);
      }
    } else {
      for (; i + 4 <= n; i += 4) {
        const double v0 = col[rows[i]];
        const double v1 = col[rows[i + 1]];
        const double v2 = col[rows[i + 2]];
        const double v3 = col[rows[i + 3]];
        vals[i] = v0;
        vals[i + 1] = v1;
        vals[i + 2] = v2;
        vals[i + 3] = v3;
        lo0 = std::min(lo0, v0);
        lo1 = std::min(lo1, v1);
        lo2 = std::min(lo2, v2);
        lo3 = std::min(lo3, v3);
        hi0 = std::max(hi0, v0);
        hi1 = std::max(hi1, v1);
        hi2 = std::max(hi2, v2);
        hi3 = std::max(hi3, v3);
      }
    }
    for (; i < n; ++i) {
      const double v = col[rows[i]];
      if (next_col != nullptr) __builtin_prefetch(next_col + rows[i]);
      vals[i] = v;
      lo0 = std::min(lo0, v);
      hi0 = std::max(hi0, v);
    }
    const double lo = std::min(std::min(lo0, lo1), std::min(lo2, lo3));
    const double hi = std::max(std::max(hi0, hi1), std::max(hi2, hi3));
    if (lo == hi) return {};
    const double threshold = rng_.uniform(lo, hi);

    const double* __restrict ys_node = node_ys_.data() + begin;
    double* __restrict sel = sel_.data();
    std::size_t nl = 0;
    for (std::size_t j = 0; j < n; ++j) {
      sel[nl] = ys_node[j];
      nl += vals[j] <= threshold ? 1u : 0u;
    }
    const std::size_t nr = n - nl;
    if (nl < min_leaf || nr < min_leaf) return {};
    double left_sum = 0.0, left_sq = 0.0;
    for (std::size_t j = 0; j < nl; ++j) {
      const double y = sel[j];
      left_sum += y;
      left_sq += y * y;
    }
    const double right_sum = total_sum - left_sum;
    const double right_sq = total_sq - left_sq;
    const double sse =
        (left_sq - left_sum * left_sum / static_cast<double>(nl)) +
        (right_sq - right_sum * right_sum / static_cast<double>(nr));
    SplitCandidate cand;
    cand.feature = feature;
    cand.threshold = threshold;
    cand.gain = parent_sse - sse;
    return cand;
  }

  std::uint32_t build(std::size_t begin, std::size_t end, std::size_t depth) {
    const std::size_t n = end - begin;
    double sum = 0.0, sq = 0.0;
    if (random_mode_) {
      // Also stage the node's ys and dataset rows contiguously for
      // random_split (one indirection instead of two per scanned value);
      // children overwrite their subrange only after this node's splits
      // are done.
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t p = pos_[i];
        const double y = ys_[p];
        node_ys_[i] = y;
        node_rows_[i] = static_cast<std::uint32_t>(sample_row_[p]);
        sum += y;
        sq += y * y;
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const double y = ys_[pos_[i]];
        sum += y;
        sq += y * y;
      }
    }
    const double mean = sum / static_cast<double>(n);
    const double sse = sq - sum * mean;

    const auto make_leaf = [&] {
      Node leaf;
      leaf.value = mean;
      nodes_.push_back(leaf);
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    };

    if (depth >= config_.max_depth || n < config_.min_samples_split ||
        sse <= 1e-12) {
      return make_leaf();
    }

    const std::size_t d = data_.feature_count();
    std::size_t k = config_.max_features == 0
                        ? static_cast<std::size_t>(std::llround(std::sqrt(
                              static_cast<double>(d))))
                        : config_.max_features;
    k = std::clamp<std::size_t>(k, 1, d);

    // Node totals are feature independent, so every candidate shares
    // them. The parent SSE is sum·sum/n, not sum·mean: they round
    // differently, and the goldens pin this one.
    const double parent_sse = sq - sum * sum / static_cast<double>(n);

    SplitCandidate best;
    rng_.sample_without_replacement(d, k, feature_sample_);
    // A column constant over the dataset, or zero at all of this node's
    // rows, holds one value here, where every split search returns {}
    // without an RNG draw; drop it after the sample is drawn so the stream
    // and the survivors' order stay put.
    mark_node_rows(begin, end);
    std::erase_if(feature_sample_, [&](std::size_t f) {
      return cols_.constant(f) || zero_at_node(f);
    });
    clear_node_rows();
    for (std::size_t c = 0; c < feature_sample_.size(); ++c) {
      const std::size_t f = feature_sample_[c];
      SplitCandidate cand;
      if (config_.split_mode == SplitMode::kBest) {
        cand = presorted_
                   ? best_split_presorted(begin, end, f,
                                          config_.min_samples_leaf)
                   : best_split_gathered(begin, end, f,
                                         config_.min_samples_leaf);
      } else {
        const double* next_col =
            c + 1 < feature_sample_.size()
                ? cols_.column(feature_sample_[c + 1]).data()
                : nullptr;
        cand = random_split(begin, end, f, config_.min_samples_leaf, sum, sq,
                            parent_sse, next_col);
      }
      if (cand.gain > best.gain) best = cand;
    }
    if (best.gain <= 0.0) return make_leaf();

    importance_[best.feature] += best.gain;

    // Mark each sample's side once, then std::partition the node's
    // positions by it. The resulting permutation fixes the order in which
    // the children accumulate their statistics.
    const auto col = cols_.column(best.feature);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t p = pos_[i];
      left_mask_[p] =
          col[sample_row_[p]] <= best.threshold ? char{1} : char{0};
    }
    const auto mid_it =
        std::partition(pos_.begin() + static_cast<std::ptrdiff_t>(begin),
                       pos_.begin() + static_cast<std::ptrdiff_t>(end),
                       [&](std::uint32_t p) { return left_mask_[p] != 0; });
    const auto mid = static_cast<std::size_t>(mid_it - pos_.begin());
    assert(mid > begin && mid < end);

    // Stable-partition every presorted list's segment so each child keeps
    // its (x, y)-sorted order.
    if (presorted_) {
      const std::size_t total = pos_.size();
      for (std::size_t f = 0; f < d; ++f) {
        std::uint32_t* seg = sorted_.data() + f * total;
        std::size_t write = begin;
        std::size_t spill = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t p = seg[i];
          if (left_mask_[p] != 0) {
            seg[write++] = p;
          } else {
            scratch_[spill++] = p;
          }
        }
        std::copy(scratch_.begin(),
                  scratch_.begin() + static_cast<std::ptrdiff_t>(spill),
                  seg + write);
      }
    }

    Node node;
    node.feature = static_cast<std::uint32_t>(best.feature);
    node.threshold = best.threshold;
    nodes_.push_back(node);
    const auto self = static_cast<std::uint32_t>(nodes_.size() - 1);
    const std::uint32_t left = build(begin, mid, depth + 1);
    const std::uint32_t right = build(mid, end, depth + 1);
    nodes_[self].left = left;
    nodes_[self].right = right;
    return self;
  }

  const Dataset& data_;
  const ColumnStore& cols_;
  const TreeConfig& config_;
  std::vector<Node>& nodes_;
  std::vector<double>& importance_;
  stats::Rng& rng_;

  std::vector<std::size_t> sample_row_;  // position -> dataset row (fixed)
  std::vector<double> ys_;               // position -> target
  std::vector<std::uint32_t> pos_;       // node segments, partitioned
  std::vector<char> left_mask_;          // position -> goes left at split
  bool random_mode_ = false;
  std::vector<double> node_ys_;          // current node's ys, contiguous
  std::vector<std::uint32_t> node_rows_; // current node's dataset rows
  std::vector<double> vals_;             // scratch: node's column values
  std::vector<double> sel_;              // scratch: compacted left-side ys
  std::vector<std::size_t> feature_sample_;  // per-node candidate features
  std::vector<std::uint64_t> node_bits_;  // node's dataset rows, as a bitmap
  std::vector<std::uint32_t> node_words_; // node_bits_ words that are set
  bool presorted_ = false;
  std::vector<std::uint32_t> sorted_;    // d segments of n positions each
  std::vector<std::uint32_t> scratch_;   // spill side of stable partitions
};

}  // namespace

void DecisionTreeRegressor::fit(const Dataset& data,
                                std::span<const std::size_t> rows,
                                stats::Rng& rng) {
  assert(!rows.empty());
  nodes_.clear();
  importance_.assign(data.feature_count(), 0.0);
  nodes_.reserve(2 * rows.size());
  ColumnarBuilder builder(data, config_, nodes_, importance_, rng);
  builder.run(rows);
}

void DecisionTreeRegressor::fit(const Dataset& data, stats::Rng& rng) {
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  fit(data, rows, rng);
}

double DecisionTreeRegressor::predict(std::span<const double> x) const {
  assert(fitted());
  std::uint32_t i = 0;
  for (;;) {
    const Node& node = nodes_[i];
    if (node.feature == Node::kLeaf) return node.value;
    assert(node.feature < x.size());
    i = x[node.feature] <= node.threshold ? node.left : node.right;
  }
}

std::size_t DecisionTreeRegressor::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree.
  std::vector<std::pair<std::uint32_t, std::size_t>> stack{{0, 1}};
  std::size_t best = 0;
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const Node& node = nodes_[i];
    if (node.feature != Node::kLeaf) {
      stack.emplace_back(node.left, d + 1);
      stack.emplace_back(node.right, d + 1);
    }
  }
  return best;
}


void DecisionTreeRegressor::save(std::ostream& out) const {
  out << std::setprecision(17);
  out << "tree " << nodes_.size() << ' ' << importance_.size() << '\n';
  for (const Node& n : nodes_) {
    out << n.feature << ' ' << n.threshold << ' ' << n.left << ' ' << n.right
        << ' ' << n.value << '\n';
  }
  for (double v : importance_) out << v << ' ';
  out << '\n';
  if (!out) throw std::runtime_error("tree write failed");
}

void DecisionTreeRegressor::load(std::istream& in) {
  // Parse into locals and validate before committing: a corrupt body must
  // neither leave the tree half-loaded nor hand traverse() or
  // BlockedForest::build an index that leads out of bounds or round a
  // cycle. Nodes are appended as they parse, so a hostile node count
  // fails at the end of the input instead of allocating up front.
  std::string tag;
  std::size_t node_count = 0, feature_count = 0;
  if (!(in >> tag >> node_count >> feature_count) || tag != "tree") {
    throw std::runtime_error("tree parse error: header");
  }
  // BlockedForest numbers nodes with int32 indices.
  constexpr std::size_t kMaxNodes = std::numeric_limits<std::int32_t>::max();
  if (node_count == 0 || node_count > kMaxNodes) {
    throw std::runtime_error("tree parse error: implausible node count");
  }
  if (feature_count > kMaxPersistedFeatures) {
    throw std::runtime_error("tree parse error: implausible feature count");
  }
  std::vector<Node> nodes;
  nodes.reserve(std::min<std::size_t>(node_count, 4096));
  for (std::size_t i = 0; i < node_count; ++i) {
    Node n;
    if (!(in >> n.feature >> n.threshold >> n.left >> n.right >> n.value)) {
      throw std::runtime_error("tree parse error: node");
    }
    if (n.feature != Node::kLeaf) {
      if (n.feature >= feature_count) {
        throw std::runtime_error("tree parse error: feature out of range");
      }
      // save() writes nodes in preorder, so children follow their parent.
      if (n.left <= i || n.right <= i || n.left >= node_count ||
          n.right >= node_count) {
        throw std::runtime_error("tree parse error: child index");
      }
    }
    nodes.push_back(n);
  }
  // Every node but the root has exactly one parent. With children after
  // parents, that makes the array one tree rooted at node 0.
  std::vector<char> has_parent(nodes.size(), 0);
  for (const Node& n : nodes) {
    if (n.feature == Node::kLeaf) continue;
    for (const std::uint32_t child : {n.left, n.right}) {
      if (has_parent[child] != 0) {
        throw std::runtime_error("tree parse error: node with two parents");
      }
      has_parent[child] = 1;
    }
  }
  if (std::count(has_parent.begin() + 1, has_parent.end(), char{0}) != 0) {
    throw std::runtime_error("tree parse error: unreachable node");
  }
  std::vector<double> importance(feature_count, 0.0);
  for (double& v : importance) {
    if (!(in >> v)) throw std::runtime_error("tree parse error: importance");
  }
  nodes_ = std::move(nodes);
  importance_ = std::move(importance);
}

}  // namespace gsight::ml

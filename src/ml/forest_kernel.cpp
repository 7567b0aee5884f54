// gsight-analyze: hot-path
#include "ml/forest_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace gsight::ml {

void BlockedForest::build(
    std::span<const DecisionTreeRegressor::Node> flat_nodes,
    std::span<const std::size_t> offsets) {
  const std::size_t trees = offsets.empty() ? 0 : offsets.size() - 1;
  const std::size_t total = flat_nodes.size();
  nodes.assign(total, PackedNode{});
  value.assign(total, 0.0);
  root.assign(trees, 0);
  depth.assign(trees, 0);

  // Per-tree breadth-first renumbering. The BFS queue doubles as the
  // local->global map: slot q of `order` is the tree-local index that
  // ends up at global index base + q.
  std::vector<std::uint32_t> order;
  std::vector<std::int32_t> global_of;  // tree-local index -> global index
  std::vector<std::int32_t> level;      // tree-local index -> BFS depth
  for (std::size_t t = 0; t < trees; ++t) {
    const std::size_t base = offsets[t];
    const std::size_t count = offsets[t + 1] - base;
    root[t] = static_cast<std::int32_t>(base);
    if (count == 0) continue;
    const DecisionTreeRegressor::Node* src = flat_nodes.data() + base;

    order.clear();
    order.push_back(0);  // root first, as in the source layout
    global_of.assign(count, 0);
    global_of[0] = static_cast<std::int32_t>(base);
    level.assign(count, 0);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const auto& node = src[order[head]];
      if (node.feature == DecisionTreeRegressor::Node::kLeaf) continue;
      const std::int32_t child_level = level[order[head]] + 1;
      depth[t] = std::max(depth[t], child_level);
      global_of[node.left] = static_cast<std::int32_t>(base + order.size());
      level[node.left] = child_level;
      order.push_back(node.left);
      global_of[node.right] = static_cast<std::int32_t>(base + order.size());
      level[node.right] = child_level;
      order.push_back(node.right);
    }
    assert(order.size() == count);

    for (std::size_t q = 0; q < order.size(); ++q) {
      const auto& node = src[order[q]];
      const std::size_t g = base + q;
      if (node.feature == DecisionTreeRegressor::Node::kLeaf) {
        // Leaves self-loop: kernels step every lane unconditionally for
        // a fixed number of rounds, and a lane parked on a leaf just
        // stays put — no per-lane "done" bookkeeping anywhere.
        nodes[g] = {0.0, kLeaf, static_cast<std::int32_t>(g)};
        value[g] = node.value;
      } else {
        // BFS pushes siblings back to back, so the right child is
        // always left + 1 — the kernels rely on it.
        assert(global_of[node.right] == global_of[node.left] + 1);
        nodes[g] = {node.threshold, static_cast<std::int32_t>(node.feature),
                    global_of[node.left]};
      }
    }
  }
}

namespace forest_kernel {

double reduce_mean(std::span<const double> leaves) {
  double sum = 0.0;
  for (const double v : leaves) sum += v;
  return sum / static_cast<double>(leaves.size());
}

namespace {

/// One branchless lane step. A parked (leaf) lane has feature == -1, so
/// the active mask zeroes both the clamped feature read (x[0], any
/// value) and the step offset, and the lane self-loops through its own
/// left link; straight-line cmov/and code, no branches.
inline std::int32_t step_lane(const BlockedForest::PackedNode* nodes,
                              const double* x, std::int32_t i) {
  const BlockedForest::PackedNode node = nodes[i];
  const std::int32_t active = ~(node.feature >> 31);  // -1 split, 0 leaf
  const std::int32_t f = node.feature & active;
  const std::int32_t go_right = x[f] <= node.threshold ? 0 : 1;
  return node.left + (go_right & active);
}

}  // namespace

void leaves(const BlockedForest& forest, std::span<const double> x,
            std::span<double> out) {
  assert(out.size() == forest.tree_count());
  const BlockedForest::PackedNode* nodes = forest.nodes.data();
  const std::size_t trees = forest.tree_count();
  for (std::size_t t0 = 0; t0 < trees; t0 += kLaneWidth) {
    const std::size_t width = std::min(kLaneWidth, trees - t0);
    std::int32_t idx[kLaneWidth];
    std::int32_t rounds = 0;
    for (std::size_t k = 0; k < kLaneWidth; ++k) {
      // Tail blocks pad with lane 0's tree; the duplicate walks are
      // cache-warm and their results are simply not stored.
      const std::size_t t = t0 + (k < width ? k : 0);
      idx[k] = forest.root[t];
      rounds = std::max(rounds, forest.depth[t]);
    }
    for (std::int32_t s = 0; s < rounds; ++s) {
      for (std::size_t k = 0; k < kLaneWidth; ++k) {
        idx[k] = step_lane(nodes, x.data(), idx[k]);
      }
    }
    for (std::size_t k = 0; k < width; ++k) {
      out[t0 + k] = forest.value[static_cast<std::size_t>(idx[k])];
    }
  }
}

void gather(const BlockedForest& forest, const Matrix& xs,
            std::span<double> out) {
  assert(out.size() == xs.rows());
  const BlockedForest::PackedNode* nodes = forest.nodes.data();
  const std::size_t trees = forest.tree_count();
  const std::size_t rows = xs.rows();
  for (std::size_t r0 = 0; r0 < rows; r0 += kLaneWidth) {
    const std::size_t width = std::min(kLaneWidth, rows - r0);
    double acc[kLaneWidth] = {};
    const double* lane_x[kLaneWidth];
    for (std::size_t k = 0; k < kLaneWidth; ++k) {
      // Tail blocks alias the extra lanes onto row r0; their results
      // are not stored.
      lane_x[k] = xs.row(r0 + (k < width ? k : 0)).data();
    }
    // Trees ascending in the inner loop: each lane's accumulator adds
    // leaf values in exactly the reference order, and the tree's hot
    // top levels stay cache-resident while the lane block walks it.
    for (std::size_t t = 0; t < trees; ++t) {
      std::int32_t idx[kLaneWidth];
      for (std::size_t k = 0; k < kLaneWidth; ++k) idx[k] = forest.root[t];
      const std::int32_t rounds = forest.depth[t];
      for (std::int32_t s = 0; s < rounds; ++s) {
        for (std::size_t k = 0; k < kLaneWidth; ++k) {
          idx[k] = step_lane(nodes, lane_x[k], idx[k]);
        }
      }
      for (std::size_t k = 0; k < kLaneWidth; ++k) {
        acc[k] += forest.value[static_cast<std::size_t>(idx[k])];
      }
    }
    for (std::size_t k = 0; k < width; ++k) {
      out[r0 + k] = acc[k] / static_cast<double>(trees);
    }
  }
}

}  // namespace forest_kernel

}  // namespace gsight::ml

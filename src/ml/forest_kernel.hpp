// Blocked forest-inference kernels. The flattened per-tree node arrays of
// RandomForestRegressor are re-laid into one breadth-first, structure-of-
// arrays buffer (BlockedForest) so several independent tree walks advance
// per step instead of one: the serial bottleneck of tree inference is the
// load-to-branch dependency chain (gather x[feature], compare, pick a
// child, repeat), and K interleaved walks give the core K independent
// chains to overlap. Two blockings cover the two query shapes, one kernel
// each:
//
//   leaves()   — tree-lane: one query row, kLaneWidth trees advance
//                together. The shape of predict() and of narrow batches:
//                the (wide) row stays cache-resident while every tree
//                visits it.
//   gather()   — row-lane: one tree, kLaneWidth query rows advance
//                together, trees outer ("leaf-index gather"). The shape
//                of wide batches: a tree's breadth-first node block stays
//                cache-resident while the whole batch streams through it.
//
// Both are portable scalar code (interleaved independent walks, plain
// control flow); DESIGN.md §15 records why there is no vector variant.
//
// Bit-identity contract: a tree walk performs no arithmetic — only
// `x[feature] <= threshold` comparisons — so both kernels reach exactly
// the leaf the reference walk reaches, and both accumulate the per-tree
// leaf values in ascending tree order with one final divide. Every
// result is therefore bit-identical to the reference kernel; the
// golden/checksum suite in tests/ml/test_forest_equivalence.cpp enforces
// this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/matrix.hpp"

namespace gsight::ml {

/// Breadth-first, node-blocked mirror of a fitted forest. Everything a
/// traversal step reads — threshold, feature, left-child index — packs
/// into one 16-byte record, so a node visit touches exactly one cache
/// line instead of one per field-array; leaf values live in a separate
/// array read once per finished walk. Children are global indices (no
/// per-tree base to add back), each tree's nodes are contiguous in BFS
/// order so the first levels — the hottest — share cache lines, and BFS
/// emits siblings adjacently, which makes `right == left + 1` a layout
/// invariant: kernels never store or fetch a right link, they add the
/// comparison result to `left`.
struct BlockedForest {
  /// Split feature per node; kLeaf marks a leaf.
  static constexpr std::int32_t kLeaf = -1;

  /// One traversal step's working set. 16 bytes so four hot nodes fit
  /// per cache line. Leaves carry feature == kLeaf and left == own index
  /// (self-loop), letting kernels step parked lanes harmlessly.
  struct PackedNode {
    double threshold = 0.0;
    std::int32_t feature = kLeaf;
    std::int32_t left = 0;  ///< global left child; right is left + 1
  };
  static_assert(sizeof(PackedNode) == 16, "four nodes per cache line");

  std::vector<PackedNode> nodes;
  std::vector<double> value;        ///< leaf prediction (0 for splits)
  std::vector<std::int32_t> root;   ///< per-tree root (== tree base)
  std::vector<std::int32_t> depth;  ///< per-tree max root->leaf edge count

  std::size_t tree_count() const { return root.size(); }
  std::size_t node_count() const { return nodes.size(); }
  bool empty() const { return root.empty(); }

  /// Rebuild from the concatenated flat node arrays (tree t occupies
  /// [offsets[t], offsets[t+1]) with tree-local child links, root first).
  void build(std::span<const DecisionTreeRegressor::Node> flat_nodes,
             std::span<const std::size_t> offsets);
};

namespace forest_kernel {

/// Independent tree walks interleaved per step. A step's critical path
/// is two dependent loads (node fields, then x[feature]), so one walk
/// leaves the core mostly idle; 8 interleaved scalar chains keep enough
/// independent load chains in flight to hide that latency without
/// spilling lane state. The kernels are branchless inside a block: every
/// lane steps exactly max(depth[t]) times (leaves self-loop, so parked
/// lanes are no-ops), trading a few wasted lane-steps for zero
/// unpredictable branches.
inline constexpr std::size_t kLaneWidth = 8;

/// Row count at or above which predict_batch uses the row-lane gather()
/// kernel instead of per-row tree-lane blocks.
inline constexpr std::size_t kGatherMinRows = 8;

/// Tree-lane blocked: leaf value of every tree for one query row, written
/// to out[t] (out.size() == forest.tree_count()).
void leaves(const BlockedForest& forest, std::span<const double> x,
            std::span<double> out);

/// Row-lane gather: full batched prediction, trees outer, kLaneWidth rows
/// advancing per step. out.size() == xs.rows(); accumulates per-tree leaf
/// values in ascending tree order, then divides once — the reference
/// summation order.
void gather(const BlockedForest& forest, const Matrix& xs,
            std::span<double> out);

/// Mean of `leaves` accumulated in ascending tree order (the exact
/// reduction the reference kernel performs).
double reduce_mean(std::span<const double> leaves);

}  // namespace forest_kernel

}  // namespace gsight::ml

#ifndef LFO_GBDT_FLAT_FOREST_HPP
#define LFO_GBDT_FLAT_FOREST_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "gbdt/gbdt.hpp"

namespace lfo::gbdt {

/// A trained Model compiled into a single contiguous node block spanning
/// all trees, for the serving hot path.
///
/// Layout. Nodes of every tree are interleaved in level order: all roots
/// first, then every tree's depth-1 nodes, and so on, so the hot
/// top-of-tree nodes of the whole forest share cache lines. Each node
/// packs (left child, split feature, threshold) into 12 bytes; the two
/// children of a split are always adjacent (right == left + 1), so one
/// index encodes both. Leaves are compiled to self-loops (left == self,
/// threshold == +inf) with their value resolved in-place in a parallel
/// `values_` array — traversal needs no is-leaf branch and summation
/// needs no per-tree indirection.
///
/// Walk. Trees are cut, in tree order, into blocks of at most
/// kBlockTrees; inside a block they are walked deepest first. The walk
/// steps every tree of a block one level at a time: at level d it
/// advances the first active[d] walk positions (the trees deeper than
/// d), so each tree takes exactly its own depth in steps and the
/// block's node loads are independent chains in flight together, rather
/// than a few chains walked to the bottom in turn.
///
/// Determinism. Traversal uses the same `feature <= threshold` test, and
/// after the walk the block's leaf values are added in tree order, not
/// walk order, so the raw score accumulates base_score + tree_0 +
/// tree_1 + ... in double precision exactly like Model::predict_raw.
/// Predictions — and therefore caching decisions — are bitwise identical
/// to the per-tree walk (enforced by tests/test_flat_forest.cpp and the
/// golden suite). Feature values must not be NaN (LFO features never
/// are).
///
/// Prediction performs no heap allocation: a block's walk state is a
/// fixed-size stack array.
class FlatForest {
 public:
  FlatForest() = default;

  /// Compile a trained model. The model can be discarded afterwards.
  static FlatForest compile(const Model& model);

  /// Trees per walk block (the walk's stack array length).
  static constexpr std::size_t kBlockTrees = 64;

  std::size_t num_trees() const { return walk_roots_.size(); }
  std::size_t num_nodes() const { return nodes_.size(); }
  double base_score() const { return base_score_; }
  /// Deepest level of any tree (0 for stump-only forests).
  std::int32_t max_depth() const;
  /// Sum of per-tree depths: node visits per fully-traversed row (for
  /// the bench_micro bytes-touched/row roofline accounting).
  std::size_t total_levels() const;

  /// Raw additive score (log-odds) of one sample.
  double predict_raw(std::span<const float> features) const;
  /// Probability of the positive class (sigmoid of the raw score).
  double predict_proba(std::span<const float> features) const;

 private:
  struct Node {
    std::int32_t left;     ///< left child; right = left + 1; self on leaves
    std::int32_t feature;  ///< split feature (0 on leaves)
    float threshold;       ///< go left when value <= threshold (+inf leaves)
  };

  std::vector<Node> nodes_;     // level-interleaved across all trees
  std::vector<double> values_;  // leaf value per node (0 on split nodes)
  std::vector<std::int32_t> depths_;  // per-tree deepest level
  // Per block, concatenated: the root slots in walk order (deepest tree
  // first), each tree's walk position (indexed in tree order), and the
  // trees still walking at each level, followed by a 0 that ends the
  // block.
  std::vector<std::int32_t> walk_roots_;
  std::vector<std::uint8_t> walk_pos_;
  std::vector<std::uint8_t> active_;
  double base_score_ = 0.0;
};

}  // namespace lfo::gbdt

#endif  // LFO_GBDT_FLAT_FOREST_HPP

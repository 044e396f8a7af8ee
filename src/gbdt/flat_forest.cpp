#include "gbdt/flat_forest.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace lfo::gbdt {

FlatForest FlatForest::compile(const Model& model) {
  FlatForest forest;
  forest.base_score_ = model.base_score();
  const std::size_t num_trees = model.num_trees();
  forest.roots_.resize(num_trees);
  forest.depths_.resize(num_trees);

  // Pass A: per-tree level lists (children appended in parent visitation
  // order, left before right, so sibling pairs stay adjacent).
  std::vector<std::vector<std::vector<std::int32_t>>> levels(num_trees);
  std::size_t total_nodes = 0;
  std::size_t max_levels = 0;
  for (std::size_t t = 0; t < num_trees; ++t) {
    const Tree& tree = model.tree(t);
    total_nodes += static_cast<std::size_t>(tree.num_nodes());
    auto& tree_levels = levels[t];
    tree_levels.push_back({0});
    for (std::size_t d = 0; d < tree_levels.size(); ++d) {
      std::vector<std::int32_t> next;
      for (const auto node : tree_levels[d]) {
        if (tree.is_leaf(node)) continue;
        next.push_back(tree.left_child(node));
        next.push_back(tree.right_child(node));
      }
      if (!next.empty()) tree_levels.push_back(std::move(next));
    }
    forest.depths_[t] = static_cast<std::int32_t>(tree_levels.size()) - 1;
    max_levels = std::max(max_levels, tree_levels.size());
  }

  // Pass B: assign flat slots level by level, tree-interleaved.
  std::vector<std::vector<std::int32_t>> slot(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    slot[t].assign(static_cast<std::size_t>(model.tree(t).num_nodes()), -1);
  }
  std::int32_t next_slot = 0;
  for (std::size_t d = 0; d < max_levels; ++d) {
    for (std::size_t t = 0; t < num_trees; ++t) {
      if (d >= levels[t].size()) continue;
      for (const auto node : levels[t][d]) {
        slot[t][static_cast<std::size_t>(node)] = next_slot++;
      }
    }
  }
  LFO_CHECK_EQ(static_cast<std::size_t>(next_slot), total_nodes)
      << "FlatForest::compile: slot assignment missed nodes";

  // Pass C: emit the packed nodes through the mapping.
  forest.nodes_.resize(total_nodes);
  forest.values_.assign(total_nodes, 0.0);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::size_t t = 0; t < num_trees; ++t) {
    const Tree& tree = model.tree(t);
    forest.roots_[t] = slot[t][0];
    for (std::int32_t node = 0; node < tree.num_nodes(); ++node) {
      const auto s = static_cast<std::size_t>(
          slot[t][static_cast<std::size_t>(node)]);
      Node& out = forest.nodes_[s];
      if (tree.is_leaf(node)) {
        out.left = static_cast<std::int32_t>(s);
        out.feature = 0;
        out.threshold = kInf;
        forest.values_[s] = tree.leaf_value(node);
      } else {
        out.left = slot[t][static_cast<std::size_t>(tree.left_child(node))];
        out.feature = tree.split_feature(node);
        out.threshold = tree.threshold(node);
        LFO_DCHECK_EQ(
            out.left + 1,
            slot[t][static_cast<std::size_t>(tree.right_child(node))])
            << "FlatForest::compile: sibling pair not adjacent";
      }
    }
  }
  return forest;
}

std::int32_t FlatForest::max_depth() const {
  std::int32_t deepest = 0;
  for (const auto d : depths_) deepest = std::max(deepest, d);
  return deepest;
}

std::size_t FlatForest::total_levels() const {
  std::size_t sum = 0;
  for (const auto d : depths_) sum += static_cast<std::size_t>(d);
  return sum;
}

LFO_HOT_PATH double FlatForest::predict_raw(std::span<const float> features) const {
  double score = base_score_;
  const Node* const nodes = nodes_.data();
  const std::int32_t* const depths = depths_.data();
  const float* const row = features.data();
  const std::size_t num_trees = roots_.size();
  std::size_t t = 0;
  // Four independent tree chains per iteration: a single chain serializes
  // every step behind the previous node load (and a converged-yet check
  // costs one extra trip round the self-loop), which is how the flat walk
  // once lost to the pointer-chasing tree walk. Four chains overlap those
  // load latencies; depth-bounded stepping needs no convergence test, and
  // leaf self-loops make the extra iterations of shallower trees
  // harmless. Values still accumulate in tree order (base + t0 + t1 +
  // ...), so scores stay bitwise identical to Model::predict_raw.
  for (; t + 4 <= num_trees; t += 4) {
    std::int32_t u0 = roots_[t];
    std::int32_t u1 = roots_[t + 1];
    std::int32_t u2 = roots_[t + 2];
    std::int32_t u3 = roots_[t + 3];
    const std::int32_t dmax =
        std::max(std::max(depths[t], depths[t + 1]),
                 std::max(depths[t + 2], depths[t + 3]));
    for (std::int32_t d = dmax; d > 0; --d) {
      const Node n0 = nodes[u0];
      const Node n1 = nodes[u1];
      const Node n2 = nodes[u2];
      const Node n3 = nodes[u3];
      u0 = n0.left + static_cast<std::int32_t>(
                         !(row[static_cast<std::size_t>(n0.feature)] <=
                           n0.threshold));
      u1 = n1.left + static_cast<std::int32_t>(
                         !(row[static_cast<std::size_t>(n1.feature)] <=
                           n1.threshold));
      u2 = n2.left + static_cast<std::int32_t>(
                         !(row[static_cast<std::size_t>(n2.feature)] <=
                           n2.threshold));
      u3 = n3.left + static_cast<std::int32_t>(
                         !(row[static_cast<std::size_t>(n3.feature)] <=
                           n3.threshold));
    }
    score += values_[static_cast<std::size_t>(u0)];
    score += values_[static_cast<std::size_t>(u1)];
    score += values_[static_cast<std::size_t>(u2)];
    score += values_[static_cast<std::size_t>(u3)];
  }
  for (; t < num_trees; ++t) {
    std::int32_t u = roots_[t];
    for (std::int32_t d = depths[t]; d > 0; --d) {
      const Node n = nodes[u];
      u = n.left + static_cast<std::int32_t>(
                       !(row[static_cast<std::size_t>(n.feature)] <=
                         n.threshold));
    }
    score += values_[static_cast<std::size_t>(u)];
  }
  return score;
}

LFO_HOT_PATH double FlatForest::predict_proba(std::span<const float> features) const {
  return sigmoid(predict_raw(features));
}

}  // namespace lfo::gbdt

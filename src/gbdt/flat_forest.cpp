#include "gbdt/flat_forest.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace lfo::gbdt {

FlatForest FlatForest::compile(const Model& model) {
  FlatForest forest;
  forest.base_score_ = model.base_score();
  const std::size_t num_trees = model.num_trees();
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

  // Walk order: blocks of kBlockTrees in tree order, deepest tree first
  // inside each (stable, so equal depths keep tree order).
  const auto& depths = forest.depths_;
  forest.walk_roots_.resize(num_trees);
  forest.walk_pos_.resize(num_trees);
  for (std::size_t first = 0; first < num_trees; first += kBlockTrees) {
    const std::size_t count = std::min(kBlockTrees, num_trees - first);
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), first);
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      return depths[a] > depths[b];
    });
    for (std::size_t i = 0; i < count; ++i) {
      forest.walk_roots_[first + i] = slot[order[i]][0];
      forest.walk_pos_[order[i]] = static_cast<std::uint8_t>(i);
    }
    for (std::int32_t d = 0; d < depths[order[0]]; ++d) {
      forest.active_.push_back(static_cast<std::uint8_t>(std::count_if(
          order.begin(), order.end(), [&](auto t) { return depths[t] > d; })));
    }
    forest.active_.push_back(0);
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
  const float* const row = features.data();
  const std::uint8_t* active = active_.data();
  const std::size_t num_trees = walk_roots_.size();
  std::int32_t at[kBlockTrees];
  for (std::size_t first = 0; first < num_trees; first += kBlockTrees) {
    const std::size_t count = std::min(kBlockTrees, num_trees - first);
    std::copy_n(walk_roots_.data() + first, count, at);
    // One level per pass over the trees still walking: their node loads
    // do not wait on each other, only on the same tree's previous level.
    for (; *active != 0; ++active) {
      const std::size_t live = *active;
      for (std::size_t i = 0; i < live; ++i) {
        const Node n = nodes[at[i]];
        at[i] = n.left + static_cast<std::int32_t>(
                             !(row[static_cast<std::size_t>(n.feature)] <=
                               n.threshold));
      }
    }
    ++active;  // the block's closing 0
    for (std::size_t t = first; t < first + count; ++t) {
      score += values_[static_cast<std::size_t>(at[walk_pos_[t]])];
    }
  }
  return score;
}

LFO_HOT_PATH double FlatForest::predict_proba(std::span<const float> features) const {
  return sigmoid(predict_raw(features));
}

}  // namespace lfo::gbdt

#include "gbdt/tree.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace lfo::gbdt {

Tree::Tree(double root_value) {
  feature_.push_back(-1);
  threshold_.push_back(0.0f);
  left_.push_back(-1);
  right_.push_back(-1);
  value_.push_back(root_value);
}

Tree::Children Tree::split_leaf(std::int32_t node, std::int32_t feature,
                                float threshold, double left_value,
                                double right_value) {
  if (!is_leaf(node)) {
    throw std::logic_error("Tree::split_leaf: node is not a leaf");
  }
  const auto add_leaf = [this](double v) {
    feature_.push_back(-1);
    threshold_.push_back(0.0f);
    left_.push_back(-1);
    right_.push_back(-1);
    value_.push_back(v);
    return static_cast<std::int32_t>(left_.size()) - 1;
  };
  const std::int32_t l = add_leaf(left_value);
  const std::int32_t r = add_leaf(right_value);
  feature_[node] = feature;
  threshold_[node] = threshold;
  left_[node] = l;
  right_[node] = r;
  return {l, r};
}

std::int32_t Tree::num_leaves() const {
  std::int32_t leaves = 0;
  for (std::size_t i = 0; i < left_.size(); ++i) {
    if (left_[i] < 0) ++leaves;
  }
  return leaves;
}

double Tree::predict(std::span<const float> features) const {
  return value_[predict_leaf(features)];
}

std::int32_t Tree::predict_leaf(std::span<const float> features) const {
  std::int32_t node = 0;
  while (left_[node] >= 0) {
    node = features[static_cast<std::size_t>(feature_[node])] <=
                   threshold_[node]
               ? left_[node]
               : right_[node];
  }
  return node;
}

void Tree::add_split_counts(std::vector<std::uint64_t>& counts) const {
  for (std::size_t i = 0; i < left_.size(); ++i) {
    if (left_[i] >= 0) {
      const auto f = static_cast<std::size_t>(feature_[i]);
      if (f >= counts.size()) counts.resize(f + 1, 0);
      ++counts[f];
    }
  }
}

void Tree::save(std::ostream& os) const {
  // Full round-trip precision for thresholds and leaf values.
  os.precision(17);
  os << left_.size() << '\n';
  for (std::size_t i = 0; i < left_.size(); ++i) {
    os << feature_[i] << ' ' << threshold_[i] << ' ' << left_[i] << ' '
       << right_[i] << ' ' << value_[i] << '\n';
  }
}

Tree Tree::load(std::istream& is) {
  std::size_t n = 0;
  is >> n;
  if (!is || n == 0 ||
      n > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::runtime_error("Tree::load: bad node count");
  }
  // The arrays grow as nodes arrive, so a forged count cannot reserve
  // memory the file does not back.
  Tree t;
  t.feature_.clear();
  t.threshold_.clear();
  t.left_.clear();
  t.right_.clear();
  t.value_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::int32_t feature = 0, left = 0, right = 0;
    float threshold = 0.0f;
    double value = 0.0;
    is >> feature >> threshold >> left >> right >> value;
    if (!is) throw std::runtime_error("Tree::load: truncated tree");
    t.feature_.push_back(feature);
    t.threshold_.push_back(threshold);
    t.left_.push_back(left);
    t.right_.push_back(right);
    t.value_.push_back(value);
  }
  // Every node but the root is the child of exactly one split, and
  // children follow their parent. Then every node is reachable and every
  // walk from the root ends at a leaf.
  const auto size = static_cast<std::int32_t>(n);
  std::vector<std::uint8_t> has_parent(n, 0);
  for (std::int32_t i = 0; i < size; ++i) {
    const auto node = static_cast<std::size_t>(i);
    const std::int32_t l = t.left_[node];
    const std::int32_t r = t.right_[node];
    if (l < 0 && r < 0) continue;  // leaf
    if (l <= i || r <= i || l >= size || r >= size || t.feature_[node] < 0) {
      throw std::runtime_error("Tree::load: bad split at node " +
                               std::to_string(i));
    }
    for (const std::int32_t child : {l, r}) {
      auto& seen = has_parent[static_cast<std::size_t>(child)];
      if (seen != 0) {
        throw std::runtime_error("Tree::load: node " + std::to_string(child) +
                                 " has two parents");
      }
      seen = 1;
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (has_parent[i] == 0) {
      throw std::runtime_error("Tree::load: node " + std::to_string(i) +
                               " is unreachable");
    }
  }
  return t;
}

}  // namespace lfo::gbdt

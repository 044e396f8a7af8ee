// Property tests of the flat-forest inference engine: on randomized
// forests (varying depth, leaf counts, feature counts, missing-gap
// sentinels, ±inf values, walk-block edges) FlatForest must be *bitwise*
// identical to the per-tree reference walk — row by row and after a
// save/load → compile round trip.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "core/lfo_model.hpp"
#include "gbdt/flat_forest.hpp"
#include "gbdt/gbdt.hpp"
#include "util/rng.hpp"

namespace {

using namespace lfo;

constexpr float kMissingGap = 1e8f;
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Threshold/feature values drawn from a small integer pool so random
/// rows frequently hit a split threshold exactly (the `<=` boundary),
/// with the missing-gap sentinel and both infinities mixed in.
float random_value(util::Rng& rng) {
  switch (rng.uniform(7)) {
    case 0:
      return kMissingGap;
    case 1:
      return kInf;
    case 2:
      return -kInf;
    case 3:
      return -static_cast<float>(rng.uniform(16));
    default:
      return static_cast<float>(rng.uniform(16));
  }
}

gbdt::Tree random_tree(util::Rng& rng, std::size_t num_features,
                       std::uint64_t max_splits) {
  gbdt::Tree tree(rng.normal(0.0, 1.0));
  std::vector<std::int32_t> leaves{0};
  const auto splits = rng.uniform(max_splits + 1);
  for (std::uint64_t s = 0; s < splits; ++s) {
    const auto pick = rng.uniform(leaves.size());
    const auto leaf = leaves[pick];
    leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(pick));
    const auto feature =
        static_cast<std::int32_t>(rng.uniform(num_features));
    // Thresholds overlap the row-value pool (exact-equality boundary
    // cases) and include the missing-gap sentinel itself.
    const float threshold =
        rng.uniform(8) == 0 ? kMissingGap
                            : static_cast<float>(rng.uniform(16));
    const auto children = tree.split_leaf(leaf, feature, threshold,
                                          rng.normal(0.0, 1.0),
                                          rng.normal(0.0, 1.0));
    leaves.push_back(children.left);
    leaves.push_back(children.right);
  }
  return tree;
}

gbdt::Model random_model(std::uint64_t seed, std::size_t num_trees,
                         std::size_t num_features,
                         std::uint64_t max_splits) {
  util::Rng rng(seed);
  std::vector<gbdt::Tree> trees;
  trees.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    trees.push_back(random_tree(rng, num_features, max_splits));
  }
  return gbdt::Model(rng.normal(0.0, 0.5), std::move(trees));
}

std::vector<float> random_matrix(util::Rng& rng, std::size_t rows,
                                 std::size_t num_features) {
  std::vector<float> matrix(rows * num_features);
  for (auto& v : matrix) v = random_value(rng);
  return matrix;
}

/// The reference score FlatForest must reproduce bit for bit: base score
/// plus each tree's contribution, accumulated in tree order.
double tree_walk_raw(const gbdt::Model& model,
                     std::span<const float> row) {
  double score = model.base_score();
  for (std::size_t t = 0; t < model.num_trees(); ++t) {
    score += model.tree(t).predict(row);
  }
  return score;
}

TEST(FlatForest, SinglePredictBitwiseIdenticalToTreeWalk) {
  util::Rng rng(17);
  for (std::uint64_t round = 0; round < 40; ++round) {
    const std::size_t num_features = 1 + rng.uniform(12);
    const std::size_t num_trees = rng.uniform(12);
    const auto max_splits = 1 + rng.uniform(30);
    const auto model =
        random_model(100 + round, num_trees, num_features, max_splits);
    const auto forest = gbdt::FlatForest::compile(model);
    ASSERT_EQ(forest.num_trees(), model.num_trees());

    const auto matrix = random_matrix(rng, 32, num_features);
    for (std::size_t r = 0; r < 32; ++r) {
      const std::span<const float> row{matrix.data() + r * num_features,
                                       num_features};
      const double expected = tree_walk_raw(model, row);
      EXPECT_EQ(forest.predict_raw(row), expected)
          << "round " << round << " row " << r;
      EXPECT_EQ(forest.predict_proba(row), model.predict_proba(row))
          << "round " << round << " row " << r;
    }
  }
}

/// A tree of one of three shapes: a single leaf, a balanced tree 1–6
/// levels deep, or a one-sided chain 20–25 deep that always extends its
/// right child (rows of large values reach its bottom). Leaf values are
/// near ±1e16 or near 1, so adding them in any order but tree order
/// changes the low bits of the sum.
gbdt::Tree shaped_tree(util::Rng& rng, std::size_t num_features) {
  const auto leaf_value = [&] {
    const double unit = rng.normal(0.0, 1.0);
    return rng.uniform(2) == 0 ? unit * 1e16 : 1.0 + unit;
  };
  const auto split = [&](gbdt::Tree& tree, std::int32_t leaf) {
    return tree.split_leaf(
        leaf, static_cast<std::int32_t>(rng.uniform(num_features)),
        static_cast<float>(rng.uniform(16)), leaf_value(), leaf_value());
  };
  gbdt::Tree tree(leaf_value());
  switch (rng.uniform(3)) {
    case 0:
      break;
    case 1: {
      std::vector<std::int32_t> level{0};
      for (auto d = 1 + rng.uniform(6); d > 0; --d) {
        std::vector<std::int32_t> next;
        for (const auto leaf : level) {
          const auto children = split(tree, leaf);
          next.push_back(children.left);
          next.push_back(children.right);
        }
        level = std::move(next);
      }
      break;
    }
    default: {
      std::int32_t leaf = 0;
      for (auto d = 20 + rng.uniform(6); d > 0; --d) {
        leaf = split(tree, leaf).right;
      }
    }
  }
  return tree;
}

TEST(FlatForest, BlocksAndMixedDepthsMatchTreeWalk) {
  constexpr std::size_t kFeatures = 6;
  util::Rng rng(29);
  for (const std::size_t num_trees : {0, 1, 63, 64, 65, 129}) {
    std::vector<gbdt::Tree> trees;
    for (std::size_t t = 0; t < num_trees; ++t) {
      trees.push_back(shaped_tree(rng, kFeatures));
    }
    const gbdt::Model model(rng.normal(0.0, 0.5), std::move(trees));
    const auto forest = gbdt::FlatForest::compile(model);
    ASSERT_EQ(forest.num_trees(), num_trees);

    // Random rows, plus rows that take every chain to its bottom.
    auto matrix = random_matrix(rng, 64, kFeatures);
    matrix.insert(matrix.end(), kFeatures, kMissingGap);
    matrix.insert(matrix.end(), kFeatures, kInf);
    for (std::size_t r = 0; r < matrix.size() / kFeatures; ++r) {
      const std::span<const float> row{matrix.data() + r * kFeatures,
                                       kFeatures};
      EXPECT_EQ(forest.predict_raw(row), tree_walk_raw(model, row))
          << num_trees << " trees, row " << r;
      EXPECT_EQ(forest.predict_proba(row), model.predict_proba(row))
          << num_trees << " trees, row " << r;
    }
  }
}

TEST(FlatForest, SaveLoadCompileRoundTrips) {
  util::Rng rng(31);
  const std::size_t num_features = 8;
  const auto model = random_model(7, 12, num_features, 30);
  std::stringstream buffer;
  model.save(buffer);
  const auto reloaded = gbdt::Model::load(buffer);

  const auto original = gbdt::FlatForest::compile(model);
  const auto recompiled = gbdt::FlatForest::compile(reloaded);
  ASSERT_EQ(original.num_nodes(), recompiled.num_nodes());

  const auto matrix = random_matrix(rng, 64, num_features);
  for (std::size_t r = 0; r < 64; ++r) {
    const std::span<const float> row{matrix.data() + r * num_features,
                                     num_features};
    EXPECT_EQ(original.predict_raw(row), recompiled.predict_raw(row));
  }
}

TEST(FlatForest, HandlesStumpsAndEmptyForests) {
  // Single-leaf trees compile to depth-0 self-loops.
  std::vector<gbdt::Tree> stumps;
  stumps.emplace_back(0.25);
  stumps.emplace_back(-0.75);
  const gbdt::Model model(0.5, std::move(stumps));
  const auto forest = gbdt::FlatForest::compile(model);
  EXPECT_EQ(forest.max_depth(), 0);
  const std::vector<float> row{1.0f};
  EXPECT_EQ(forest.predict_raw(row), 0.5 + 0.25 + -0.75);

  // A model with no trees at all predicts sigmoid(base).
  const gbdt::Model empty;
  const auto empty_forest = gbdt::FlatForest::compile(empty);
  EXPECT_EQ(empty_forest.num_nodes(), 0u);
  EXPECT_EQ(empty_forest.predict_proba(row), gbdt::sigmoid(0.0));
}

TEST(FlatForest, InterleavedLayoutPutsRootsFirst) {
  // All roots occupy the first num_trees slots (level-order across
  // trees), which is what keeps the hot top-of-tree nodes co-resident.
  const auto model = random_model(55, 8, 4, 20);
  const auto forest = gbdt::FlatForest::compile(model);
  std::size_t total = 0;
  for (std::size_t t = 0; t < model.num_trees(); ++t) {
    total += static_cast<std::size_t>(model.tree(t).num_nodes());
  }
  EXPECT_EQ(forest.num_nodes(), total);
}

TEST(FlatForest, LfoModelPredictServesTheFlatWalk) {
  features::FeatureConfig fc;
  fc.num_gaps = 5;
  const core::LfoModel lfo(random_model(77, 10, fc.dimension(), 30), fc);
  features::FeatureScratch scratch;
  util::Rng rng(3);
  const auto matrix = random_matrix(rng, 100, fc.dimension());
  for (std::size_t r = 0; r < 100; ++r) {
    const std::span<const float> row{matrix.data() + r * fc.dimension(),
                                     fc.dimension()};
    const double served = lfo.predict(row);
    EXPECT_EQ(served, lfo.forest().predict_proba(row)) << "row " << r;
    EXPECT_EQ(served, lfo.booster().predict_proba(row)) << "row " << r;
    EXPECT_EQ(served, lfo.predict(row, scratch)) << "row " << r;
  }
}

}  // namespace

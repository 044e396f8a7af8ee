#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "gbdt/dataset.hpp"
#include "gbdt/gbdt.hpp"
#include "gbdt/tree.hpp"
#include "util/rng.hpp"

namespace lfo::gbdt {
namespace {

Dataset xor_dataset(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset data(2);
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float a = static_cast<float>(rng.uniform01());
    const float b = static_cast<float>(rng.uniform01());
    const float label = ((a > 0.5f) != (b > 0.5f)) ? 1.0f : 0.0f;
    const float row[2] = {a, b};
    data.add_row(row, label);
  }
  return data;
}

TEST(Dataset, AddRowAndAccess) {
  Dataset d(3);
  const float r0[3] = {1, 2, 3};
  const float r1[3] = {4, 5, 6};
  d.add_row(r0, 1.0f);
  d.add_row(r1, 0.0f);
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.feature(1, 2), 6.0f);
  EXPECT_EQ(d.label(0), 1.0f);
  EXPECT_EQ(d.row(1)[0], 4.0f);
}

TEST(Dataset, RejectsWrongArity) {
  Dataset d(2);
  const float r[3] = {1, 2, 3};
  EXPECT_THROW(d.add_row(r, 0.0f), std::invalid_argument);
  EXPECT_THROW(Dataset(0), std::invalid_argument);
}

TEST(Dataset, RejectsNan) {
  // NaN has no place in the value order binning sorts by.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Dataset d(2);
  const float bad_feature[2] = {1.0f, nan};
  const float good[2] = {1.0f, 2.0f};
  EXPECT_THROW(d.add_row(bad_feature, 0.0f), std::invalid_argument);
  EXPECT_THROW(d.add_row(good, nan), std::invalid_argument);
  EXPECT_EQ(d.num_rows(), 0u);
  d.add_row(good, 1.0f);
  EXPECT_EQ(d.num_rows(), 1u);
}

TEST(FeatureBins, BinForIsConsistentWithBounds) {
  FeatureBins fb;
  fb.upper_bounds = {1.0f, 5.0f, 9.0f};
  EXPECT_EQ(fb.num_bins(), 4u);
  EXPECT_EQ(fb.bin_for(0.5f), 0u);
  EXPECT_EQ(fb.bin_for(1.0f), 0u);  // boundary goes left
  EXPECT_EQ(fb.bin_for(1.5f), 1u);
  EXPECT_EQ(fb.bin_for(9.0f), 2u);
  EXPECT_EQ(fb.bin_for(100.0f), 3u);
}

TEST(BinnedDataset, FewDistinctValuesGetExactBins) {
  Dataset d(1);
  for (const float v : {1.0f, 2.0f, 3.0f, 1.0f, 2.0f}) {
    d.add_row({&v, 1}, 0.0f);
  }
  BinnedDataset binned(d, 64);
  EXPECT_EQ(binned.feature_bins(0).num_bins(), 3u);
  EXPECT_EQ(binned.bin(0, 0), 0);
  EXPECT_EQ(binned.bin(2, 0), 2);
  EXPECT_EQ(binned.bin(3, 0), 0);
}

TEST(BinnedDataset, ManyValuesRespectMaxBins) {
  Dataset d(1);
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.uniform01());
    d.add_row({&v, 1}, 0.0f);
  }
  BinnedDataset binned(d, 16);
  EXPECT_LE(binned.feature_bins(0).num_bins(), 16u);
  EXPECT_GE(binned.feature_bins(0).num_bins(), 8u);
}

TEST(BinnedDataset, RejectsBadMaxBins) {
  Dataset d(1);
  const float v = 1.0f;
  d.add_row({&v, 1}, 0.0f);
  EXPECT_THROW(BinnedDataset(d, 1), std::invalid_argument);
  EXPECT_THROW(BinnedDataset(d, 257), std::invalid_argument);
}

/// Binning as std::sort + std::unique over the column, quantile bounds
/// over the distinct values, then lower_bound per value: the reference
/// BinnedDataset's sort-once radix binning must reproduce exactly.
struct ReferenceBinning {
  std::vector<float> bounds;
  std::vector<std::uint32_t> bins;
};

ReferenceBinning reference_binning(const std::vector<float>& column,
                                   std::uint32_t max_bins) {
  std::vector<float> values = column;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  ReferenceBinning ref;
  if (values.size() > 1 && values.size() <= max_bins) {
    for (std::size_t i = 0; i + 1 < values.size(); ++i) {
      ref.bounds.push_back(values[i] + (values[i + 1] - values[i]) * 0.5f);
    }
  } else if (values.size() > max_bins) {
    for (std::uint32_t b = 1; b < max_bins; ++b) {
      const auto idx = static_cast<std::size_t>(
          static_cast<double>(b) * static_cast<double>(values.size()) /
          static_cast<double>(max_bins));
      const float bound = values[std::min(idx, values.size() - 1)];
      if (ref.bounds.empty() || bound > ref.bounds.back()) {
        ref.bounds.push_back(bound);
      }
    }
  }
  for (const float v : column) {
    ref.bins.push_back(static_cast<std::uint32_t>(
        std::lower_bound(ref.bounds.begin(), ref.bounds.end(), v) -
        ref.bounds.begin()));
  }
  return ref;
}

void expect_reference_binning(const std::vector<float>& column,
                              std::uint32_t max_bins) {
  Dataset d(1);
  for (const float v : column) d.add_row({&v, 1}, 0.0f);
  const BinnedDataset binned(d, max_bins);
  const auto ref = reference_binning(column, max_bins);
  const auto& bounds = binned.feature_bins(0).upper_bounds;
  ASSERT_EQ(bounds.size(), ref.bounds.size()) << "max_bins=" << max_bins;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    EXPECT_TRUE(bounds[b] == ref.bounds[b])
        << "bound " << b << ": " << bounds[b] << " vs " << ref.bounds[b];
  }
  for (std::size_t r = 0; r < column.size(); ++r) {
    ASSERT_EQ(binned.bin(r, 0), ref.bins[r])
        << "row " << r << " value " << column[r] << " max_bins=" << max_bins;
  }
}

/// `distinct` distinct values, each repeated a random number of times,
/// in random order.
std::vector<float> column_with_distinct(std::size_t distinct,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> column;
  for (std::size_t i = 0; i < distinct; ++i) {
    const auto copies = 1 + rng.uniform(4);
    for (std::uint64_t c = 0; c < copies; ++c) {
      column.push_back(static_cast<float>(i) * 0.75f - 20.0f);
    }
  }
  for (std::size_t i = column.size(); i > 1; --i) {
    std::swap(column[i - 1], column[rng.uniform(i)]);
  }
  return column;
}

TEST(BinnedDataset, MatchesSortUniqueReference) {
  util::Rng rng(21);
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();

  // Heavy duplicates, negatives and -0.0/+0.0 mixes, in both the
  // one-bin-per-value and the quantile regime.
  std::vector<float> few, many, zeros;
  const float small_set[] = {-3.0f, -1.0f, -0.0f, 0.0f, 0.5f, 2.0f};
  for (int i = 0; i < 2000; ++i) {
    few.push_back(small_set[rng.uniform(6)]);
    many.push_back(static_cast<float>(rng.uniform(500)) - 250.0f);
    if (i % 7 == 0) many.back() = -0.0f;
    zeros.push_back(rng.bernoulli(0.5) ? -0.0f : 0.0f);
  }
  // +-inf and denormals. A midpoint between -inf and a finite value is
  // NaN in either binning, so -inf is only mixed in where bounds are
  // quantile values.
  std::vector<float> infs_quantile, infs_exact, denormals;
  for (int i = 0; i < 3000; ++i) {
    infs_quantile.push_back(static_cast<float>(rng.uniform01() * 2 - 1));
    if (i % 11 == 0) infs_quantile.back() = inf;
    if (i % 13 == 0) infs_quantile.back() = -inf;
    infs_exact.push_back(i % 5 == 0 ? inf
                                    : static_cast<float>(rng.uniform(10)));
    denormals.push_back(denorm * static_cast<float>(rng.uniform(100)) *
                        (rng.bernoulli(0.5) ? 1.0f : -1.0f));
  }
  // Every key byte varies: all four radix passes run.
  std::vector<float> wide;
  for (int i = 0; i < 20000; ++i) {
    wide.push_back(static_cast<float>(rng.pareto(1e-3, 0.5)) *
                   (rng.bernoulli(0.3) ? -1.0f : 1.0f));
  }

  for (const std::uint32_t max_bins : {2u, 16u, 64u, 256u}) {
    for (const auto* column : {&few, &many, &zeros, &infs_quantile,
                               &infs_exact, &denormals, &wide}) {
      expect_reference_binning(*column, max_bins);
    }
    expect_reference_binning({1.5f}, max_bins);  // one row
    for (const std::size_t distinct :
         {std::size_t{max_bins} - 1, std::size_t{max_bins},
          std::size_t{max_bins} + 1}) {
      expect_reference_binning(column_with_distinct(distinct, max_bins),
                               max_bins);
    }
  }
}

TEST(BinnedDataset, RowMajorBinsMatchEachColumnBinnedAlone) {
  // Three columns of different shapes binned together: every row's bins
  // sit at row(r)[c], and each equals the column's binning on its own.
  util::Rng rng(22);
  std::vector<std::vector<float>> columns(3);
  for (int i = 0; i < 3000; ++i) {
    columns[0].push_back(static_cast<float>(rng.uniform(7)));
    columns[1].push_back(static_cast<float>(rng.pareto(1.0, 1.2)));
    columns[2].push_back(static_cast<float>(rng.uniform01()) - 0.5f);
  }
  Dataset d(columns.size());
  for (std::size_t r = 0; r < columns[0].size(); ++r) {
    const float row[3] = {columns[0][r], columns[1][r], columns[2][r]};
    d.add_row(row, 0.0f);
  }
  const BinnedDataset binned(d, 64);
  ASSERT_EQ(binned.num_features(), columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const auto ref = reference_binning(columns[c], 64);
    for (std::size_t r = 0; r < d.num_rows(); ++r) {
      ASSERT_EQ(binned.bin(r, c), ref.bins[r]) << "row " << r << " col " << c;
      ASSERT_EQ(binned.row(r)[c], binned.bin(r, c));
    }
  }
}

TEST(Tree, SingleLeafPredictsRootValue) {
  Tree t(0.25);
  const float row[1] = {0.0f};
  EXPECT_DOUBLE_EQ(t.predict({row, 1}), 0.25);
  EXPECT_EQ(t.num_leaves(), 1);
}

TEST(Tree, SplitRoutesByThreshold) {
  Tree t(0.0);
  t.split_leaf(0, 0, 5.0f, -1.0, 1.0);
  const float lo[1] = {3.0f};
  const float hi[1] = {7.0f};
  const float edge[1] = {5.0f};
  EXPECT_DOUBLE_EQ(t.predict({lo, 1}), -1.0);
  EXPECT_DOUBLE_EQ(t.predict({hi, 1}), 1.0);
  EXPECT_DOUBLE_EQ(t.predict({edge, 1}), -1.0);  // <= goes left
  EXPECT_EQ(t.num_leaves(), 2);
  EXPECT_THROW(t.split_leaf(0, 0, 1.0f, 0, 0), std::logic_error);
}

TEST(Tree, SplitCountsPerFeature) {
  Tree t(0.0);
  const auto c = t.split_leaf(0, 1, 5.0f, 0.0, 0.0);
  t.split_leaf(c.left, 0, 2.0f, 0.0, 0.0);
  t.split_leaf(c.right, 1, 7.0f, 0.0, 0.0);
  std::vector<std::uint64_t> counts(2, 0);
  t.add_split_counts(counts);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
}

TEST(Tree, SaveLoadRoundTrip) {
  Tree t(0.5);
  const auto c = t.split_leaf(0, 0, 3.0f, -0.25, 0.75);
  t.split_leaf(c.right, 1, 1.5f, 0.1, 0.9);
  std::stringstream ss;
  t.save(ss);
  const auto back = Tree::load(ss);
  util::Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const float row[2] = {static_cast<float>(rng.uniform_real(0, 5)),
                          static_cast<float>(rng.uniform_real(0, 3))};
    EXPECT_DOUBLE_EQ(back.predict({row, 2}), t.predict({row, 2}));
  }
}

TEST(Sigmoid, StableAndCorrect) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-12);
  EXPECT_NEAR(sigmoid(-2.0), 1.0 - sigmoid(2.0), 1e-12);
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);   // no overflow
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);  // no underflow
}

/// The two-branch sigmoid the branch-free one replaced.
double two_branch_sigmoid(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(Sigmoid, BranchFreeMatchesTwoBranchReferenceBitwise) {
  using limits = std::numeric_limits<double>;
  const double edges[] = {0.0,   -0.0,   limits::denorm_min(),
                          -limits::denorm_min(), limits::min() / 3,
                          1e-300, -1e-300, 745.0, -745.0,
                          745.2, -745.2, 36.8, -36.8,
                          limits::infinity(), -limits::infinity(),
                          limits::max(), -limits::max()};
  for (const double x : edges) {
    EXPECT_TRUE(same_bits(sigmoid(x), two_branch_sigmoid(x)))
        << "x=" << x << ": " << sigmoid(x) << " vs "
        << two_branch_sigmoid(x);
  }
  EXPECT_TRUE(std::isnan(sigmoid(limits::quiet_NaN())));
  EXPECT_TRUE(std::isnan(two_branch_sigmoid(limits::quiet_NaN())));

  util::Rng rng(31);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    // Scores of every scale a boosted model produces, and beyond.
    const double x = rng.uniform_real(-1.0, 1.0) *
                     std::ldexp(1.0, static_cast<int>(rng.uniform(24)) - 12);
    mismatches += !same_bits(sigmoid(x), two_branch_sigmoid(x));
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RoundHalfAway, MatchesLlround) {
  const auto expect_llround = [](double x) {
    EXPECT_EQ(round_half_away(x), std::llround(x)) << std::hexfloat << x;
  };
  const double half_ulp_below = std::nextafter(0.5, 0.0);
  const double half_ulp_above = std::nextafter(0.5, 1.0);
  for (const double x :
       {0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1e15 + 0.5,
        -(1e15 + 0.5), half_ulp_below, -half_ulp_below, half_ulp_above,
        -half_ulp_above, 1.0 - half_ulp_below, 0x1p52 + 0.5,
        -(0x1p52 + 0.5), 0x1p52 - 0.5, -(0x1p52 - 0.5), 0x1p51 + 0.5,
        -(0x1p51 + 0.5), 0x1p53 + 2.0, 0x1p62, -0x1p62,
        std::nextafter(0x1p63, 0.0), -0x1p63, 1e-320, -1e-320}) {
    expect_llround(x);
  }
  // Every exact tie n + 1/2 over a range of magnitudes.
  for (std::int64_t n = -1000; n <= 1000; ++n) {
    expect_llround(static_cast<double>(n) + 0.5);
  }

  util::Rng rng(32);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    // Magnitudes from 2^-8 to 2^62: the fixed-point values a gradient
    // of any scale rounds to.
    double x = rng.uniform_real(-1.0, 1.0) *
               std::ldexp(1.0, static_cast<int>(rng.uniform(71)) - 8);
    // A quarter of them exact ties.
    if (i % 4 == 0 && std::abs(x) < 0x1p52) {
      x = std::trunc(x) + std::copysign(0.5, x);
    }
    mismatches += round_half_away(x) != std::llround(x);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Train, LearnsLinearlySeparableData) {
  util::Rng rng(2);
  Dataset data(1);
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.uniform01());
    data.add_row({&x, 1}, x > 0.5f ? 1.0f : 0.0f);
  }
  Params params;
  params.num_iterations = 10;
  const auto model = train(data, params);
  EXPECT_GT(accuracy(model, data), 0.98);
}

TEST(Train, LearnsXorNonlinearity) {
  const auto data = xor_dataset(4000, 3);
  Params params;
  params.num_iterations = 30;
  const auto model = train(data, params);
  // XOR requires depth >= 2 interactions; a boosted tree handles it.
  EXPECT_GT(accuracy(model, data), 0.95);
}

TEST(Train, LoglossDecreasesMonotonically) {
  const auto data = xor_dataset(2000, 4);
  Params params;
  params.num_iterations = 20;
  const auto model = train(data, params);
  EXPECT_EQ(model.num_trees(), 20u);  // every iteration adds a tree
  // The model of the first k trees scores each row as the trainer did
  // after round k: same base score, same trees in the same order.
  std::vector<Tree> prefix = {model.tree(0)};
  double previous = logloss(Model(model.base_score(), prefix), data);
  for (std::size_t k = 2; k <= model.num_trees(); ++k) {
    prefix.push_back(model.tree(k - 1));
    const double loss = logloss(Model(model.base_score(), prefix), data);
    EXPECT_LE(loss, previous + 1e-9) << "at iteration " << k;
    previous = loss;
  }
}

TEST(Train, DeterministicPerSeed) {
  const auto data = xor_dataset(1000, 5);
  Params params;
  params.num_iterations = 5;
  params.bagging_fraction = 0.8;
  params.feature_fraction = 0.5;
  params.seed = 77;
  const auto m1 = train(data, params);
  const auto m2 = train(data, params);
  util::Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const float row[2] = {static_cast<float>(rng.uniform01()),
                          static_cast<float>(rng.uniform01())};
    EXPECT_DOUBLE_EQ(m1.predict_proba({row, 2}), m2.predict_proba({row, 2}));
  }
}

TEST(Train, BaseScoreMatchesPrior) {
  Dataset data(1);
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.uniform01());
    data.add_row({&x, 1}, i % 4 == 0 ? 1.0f : 0.0f);  // 25% positive
  }
  Params params;
  params.num_iterations = 0;  // prior only
  const auto model = train(data, params);
  const float x = 0.5f;
  EXPECT_NEAR(model.predict_proba({&x, 1}), 0.25, 1e-9);
}

TEST(Train, RespectsNumLeaves) {
  const auto data = xor_dataset(2000, 8);
  Params params;
  params.num_iterations = 3;
  params.num_leaves = 4;
  const auto model = train(data, params);
  for (std::size_t t = 0; t < model.num_trees(); ++t) {
    EXPECT_LE(model.tree(t).num_leaves(), 4);
  }
}

TEST(Train, MaxDepthOneIsAStump) {
  const auto data = xor_dataset(2000, 9);
  Params params;
  params.num_iterations = 3;
  params.max_depth = 1;
  const auto model = train(data, params);
  for (std::size_t t = 0; t < model.num_trees(); ++t) {
    EXPECT_LE(model.tree(t).num_leaves(), 2);
  }
}

TEST(Train, RejectsBadInputs) {
  Dataset empty(1);
  Params params;
  EXPECT_THROW(train(empty, params), std::invalid_argument);
  const auto data = xor_dataset(100, 10);
  params.num_leaves = 1;
  EXPECT_THROW(train(data, params), std::invalid_argument);
}

TEST(Train, RegressionWithHugeLabelsDoesNotOverflow) {
  // L2 gradients are residuals, unbounded by the loss: here ~1e9 on the
  // first round. Fixed-point sums must scale their unit to fit int64
  // (signed overflow is caught by the sanitizer build).
  util::Rng rng(16);
  Dataset data(1);
  for (int i = 0; i < 5000; ++i) {
    const float x = static_cast<float>(rng.uniform01());
    data.add_row({&x, 1}, x > 0.5f ? 3e9f : 1e9f);
  }
  Params params;
  params.objective = Objective::kRegressionL2;
  params.num_iterations = 50;
  params.learning_rate = 0.3;
  const auto model = train(data, params);
  const float lo = 0.25f;
  const float hi = 0.75f;
  EXPECT_NEAR(model.predict_raw({&lo, 1}), 1e9, 1e6);
  EXPECT_NEAR(model.predict_raw({&hi, 1}), 3e9, 1e6);
}

TEST(Model, SaveLoadRoundTrip) {
  const auto data = xor_dataset(1500, 11);
  Params params;
  params.num_iterations = 8;
  const auto model = train(data, params);
  std::stringstream ss;
  model.save(ss);
  const auto back = Model::load(ss);
  EXPECT_EQ(back.num_trees(), model.num_trees());
  util::Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const float row[2] = {static_cast<float>(rng.uniform01()),
                          static_cast<float>(rng.uniform01())};
    EXPECT_NEAR(back.predict_proba({row, 2}), model.predict_proba({row, 2}),
                1e-9);
  }
}

TEST(Model, LoadRejectsBadHeader) {
  std::stringstream ss("not a model");
  EXPECT_THROW(Model::load(ss), std::runtime_error);
}

TEST(Model, SplitSharesSumToOne) {
  const auto data = xor_dataset(2000, 13);
  Params params;
  params.num_iterations = 10;
  const auto model = train(data, params);
  const auto shares = model.split_shares(2);
  EXPECT_NEAR(shares[0] + shares[1], 1.0, 1e-12);
  // XOR uses both features.
  EXPECT_GT(shares[0], 0.1);
  EXPECT_GT(shares[1], 0.1);
}

TEST(Model, IgnoresIrrelevantFeature) {
  util::Rng rng(14);
  Dataset data(2);
  for (int i = 0; i < 3000; ++i) {
    const float signal = static_cast<float>(rng.uniform01());
    const float noise = static_cast<float>(rng.uniform01());
    const float row[2] = {signal, noise};
    data.add_row(row, signal > 0.5f ? 1.0f : 0.0f);
  }
  Params params;
  params.num_iterations = 10;
  const auto model = train(data, params);
  const auto shares = model.split_shares(2);
  // Once the signal is fully separated, residual-gradient noise still
  // attracts some splits (LightGBM behaves the same); the signal feature
  // must nevertheless dominate.
  EXPECT_GT(shares[0], shares[1]);
  EXPECT_GT(shares[0], 0.5);
}

/// Property sweep: across hyperparameter settings, training converges to
/// something better than the trivial predictor on XOR.
///
/// gtest names each case after a byte dump of its parameter, so the
/// padding is spelled out as zeroed members: implicit padding bytes are
/// uninitialised and made the test names change with the environment.
struct HyperParams {
  std::uint32_t leaves;
  std::uint32_t pad0 = 0;
  double lr;
  std::uint32_t iters;
  std::uint32_t pad1 = 0;
};
static_assert(sizeof(HyperParams) == 24, "HyperParams must have no padding");
class TrainSweep : public ::testing::TestWithParam<HyperParams> {};

TEST_P(TrainSweep, BeatsTrivialBaseline) {
  const auto data = xor_dataset(2000, 15);
  Params params;
  params.num_leaves = GetParam().leaves;
  params.learning_rate = GetParam().lr;
  params.num_iterations = GetParam().iters;
  const auto model = train(data, params);
  EXPECT_GT(accuracy(model, data), 0.6);
  EXPECT_LT(logloss(model, data), std::log(2.0));
}

INSTANTIATE_TEST_SUITE_P(
    Hyperparameters, TrainSweep,
    ::testing::Values(HyperParams{.leaves = 4, .lr = 0.3, .iters = 10},
                      HyperParams{.leaves = 8, .lr = 0.1, .iters = 20},
                      HyperParams{.leaves = 31, .lr = 0.1, .iters = 30},
                      HyperParams{.leaves = 64, .lr = 0.05, .iters = 40},
                      HyperParams{.leaves = 16, .lr = 0.5, .iters = 5}));

}  // namespace
}  // namespace lfo::gbdt

// Tests for the regression GBDT objective and the LRB-lite policy.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "cache/lru.hpp"
#include "cache/random_cache.hpp"
#include "core/lrb_lite.hpp"
#include "gbdt/gbdt.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace lfo {
namespace {

TEST(RegressionObjective, FitsLinearFunction) {
  util::Rng rng(110);
  gbdt::Dataset data(1);
  for (int i = 0; i < 4000; ++i) {
    const float x = static_cast<float>(rng.uniform_real(0, 10));
    data.add_row({&x, 1}, 3.0f * x + 1.0f);
  }
  gbdt::Params params;
  params.objective = gbdt::Objective::kRegressionL2;
  params.num_iterations = 60;
  params.learning_rate = 0.2;
  const auto model = gbdt::train(data, params);
  double sse = 0.0;
  for (int i = 0; i < 200; ++i) {
    const float x = static_cast<float>(rng.uniform_real(0.5, 9.5));
    const double err = model.predict_raw({&x, 1}) - (3.0 * x + 1.0);
    sse += err * err;
  }
  EXPECT_LT(sse / 200.0, 0.5);  // tight fit on a smooth function
}

TEST(RegressionObjective, BaseScoreIsLabelMean) {
  gbdt::Dataset data(1);
  const float x = 0.0f;
  data.add_row({&x, 1}, 2.0f);
  data.add_row({&x, 1}, 4.0f);
  gbdt::Params params;
  params.objective = gbdt::Objective::kRegressionL2;
  params.num_iterations = 0;
  const auto model = gbdt::train(data, params);
  EXPECT_NEAR(model.predict_raw({&x, 1}), 3.0, 1e-9);
}

TEST(RegressionObjective, LossDecreases) {
  util::Rng rng(111);
  gbdt::Dataset data(2);
  for (int i = 0; i < 2000; ++i) {
    const float row[2] = {static_cast<float>(rng.uniform01()),
                          static_cast<float>(rng.uniform01())};
    data.add_row(row, row[0] * row[1] * 10.0f);
  }
  gbdt::Params params;
  params.objective = gbdt::Objective::kRegressionL2;
  params.num_iterations = 25;
  const auto model = gbdt::train(data, params);
  ASSERT_EQ(model.num_trees(), 25u);
  // Mean ½(score − y)² of the model of the first k trees: the loss the
  // trainer's scores had after round k.
  const auto loss_after = [&](std::size_t k) {
    std::vector<gbdt::Tree> trees;
    for (std::size_t i = 0; i < k; ++i) trees.push_back(model.tree(i));
    const gbdt::Model prefix(model.base_score(), std::move(trees));
    double loss = 0.0;
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
      const double d = prefix.predict_raw(data.row(r)) - data.label(r);
      loss += 0.5 * d * d;
    }
    return loss / static_cast<double>(data.num_rows());
  };
  EXPECT_LT(loss_after(25), loss_after(1) * 0.5);
}

core::LrbConfig fast_lrb() {
  core::LrbConfig config;
  config.features.num_gaps = 8;
  config.gbdt.num_iterations = 12;
  config.retrain_interval = 8000;
  config.label_horizon = 8000;
  config.min_train_samples = 1000;
  return config;
}


TEST(LrbLite, BootstrapWorksAndRetrainsEventually) {
  const auto t = trace::generate_zipf_trace(40000, 800, 1.0, 112);
  core::LrbCache cache(t.unique_bytes() / 8, fast_lrb(), 1);
  EXPECT_FALSE(cache.has_model());
  for (const auto& r : t.requests()) {
    cache.access(r);
    ASSERT_LE(cache.used_bytes(), cache.capacity());
  }
  EXPECT_TRUE(cache.has_model());
  EXPECT_GE(cache.retrain_count(), 2u);
  EXPECT_GT(cache.stats().bhr(), 0.0);
}

TEST(LrbLite, BeatsRandomOnSkewedWorkload) {
  const auto t = trace::generate_zipf_trace(60000, 1500, 1.1, 113);
  const auto cache_size = t.unique_bytes() / 10;
  core::LrbCache lrb(cache_size, fast_lrb(), 1);
  cache::RandomCache rnd(cache_size, 1);
  for (const auto& r : t.requests()) {
    lrb.access(r);
    rnd.access(r);
  }
  EXPECT_GT(lrb.stats().bhr(), rnd.stats().bhr());
}

TEST(LrbLite, ClearResetsContents) {
  const auto t = trace::generate_zipf_trace(5000, 200, 1.0, 114);
  core::LrbCache cache(t.unique_bytes() / 8, fast_lrb(), 1);
  for (const auto& r : t.requests()) cache.access(r);
  cache.clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
  for (const auto& r : t.requests()) {
    EXPECT_FALSE(cache.contains(r.object));
    break;
  }
}

}  // namespace
}  // namespace lfo

// Determinism guarantees of the training and retraining pipeline:
//  - a fixed seed yields a bitwise-identical GBDT model for any row order
//    (exact integer histogram sums); test_gbdt_golden pins the model
//    bits themselves across commits;
//  - the windowed pipeline makes identical caching decisions whether
//    retraining runs inline (sync) or overlapped on a thread pool
//    (async), at any pool size, for equal swap_lag.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/windowed.hpp"
#include "gbdt/gbdt.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace lfo;

gbdt::Dataset make_dataset(std::size_t rows, std::size_t features,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  gbdt::Dataset data(features);
  data.reserve(rows);
  std::vector<float> row(features);
  for (std::size_t r = 0; r < rows; ++r) {
    double signal = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      // Skewed values, like CDN gap features.
      row[f] = static_cast<float>(rng.pareto(1.0, 1.2));
      signal += (f % 3 == 0) ? row[f] : 0.0;
    }
    const float label = (signal > 6.0) != rng.bernoulli(0.1) ? 1.0f : 0.0f;
    data.add_row(row, label);
  }
  return data;
}

std::string model_dump(const gbdt::Model& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

TEST(GbdtDeterminism, SameModelOnRowPermutedData) {
  // Histogram sums are exact integers, so the order rows arrive in
  // cannot move a gain by even one rounding step. Floating-point sums
  // would (addition order), and the dump would drift.
  const auto data = make_dataset(3000, 12, 5);
  std::vector<std::size_t> order(data.num_rows());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  util::Rng rng(9);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(i)]);
  }
  gbdt::Dataset permuted(data.num_features());
  permuted.reserve(data.num_rows());
  for (const auto r : order) permuted.add_row(data.row(r), data.label(r));

  gbdt::Params params;
  params.num_iterations = 12;
  params.num_leaves = 15;
  EXPECT_EQ(model_dump(gbdt::train(data, params)),
            model_dump(gbdt::train(permuted, params)));
}

core::WindowedConfig pipeline_config(std::uint64_t cache_size) {
  core::WindowedConfig config;
  config.lfo.set_cache_size(cache_size);
  config.lfo.features.num_gaps = 10;
  config.lfo.gbdt.num_iterations = 8;
  config.window_size = 1000;
  return config;
}

TEST(PipelineDeterminism, AsyncMatchesSyncAtEqualSwapLag) {
  const auto trace = trace::generate_zipf_trace(6000, 600, 0.9, 21);
  for (const std::uint32_t lag : {0u, 1u, 2u}) {
    auto config = pipeline_config(1 << 22);
    config.swap_lag = lag;
    config.train_threads = 0;
    const auto sync = core::run_windowed_lfo(trace, config);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      config.train_threads = threads;
      const auto async = core::run_windowed_lfo(trace, config);
      EXPECT_TRUE(core::same_decisions(sync, async))
          << "decisions on " << threads
          << " training threads drifted from inline at swap_lag=" << lag;
    }
  }
}

TEST(PipelineDeterminism, AsyncIdenticalAcrossPoolSizes) {
  const auto trace = trace::generate_zipf_trace(5000, 500, 0.8, 33);
  auto config = pipeline_config(1 << 21);
  config.swap_lag = 1;
  config.train_threads = 1;
  const auto baseline = core::run_windowed_lfo(trace, config);
  for (const std::size_t threads : {2u, 8u}) {
    config.train_threads = threads;
    const auto run = core::run_windowed_lfo(trace, config);
    EXPECT_TRUE(core::same_decisions(baseline, run))
        << "pooled decisions drifted at train_threads=" << threads;
  }
}

}  // namespace

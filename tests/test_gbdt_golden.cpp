// Frozen GBDT fits: the FNV-1a-64 hash of Model::save for four fixed
// training sets. The decision goldens
// (test_golden_traces) only see a model through the caching decisions it
// makes; these hashes pin the model itself (every split feature,
// threshold and leaf value, to the last bit) across commits, so a
// rewrite of the trainer's histogram, partition or gradient code that
// claims to change nothing has to prove it here.
//
// Re-record a hash only for an intended change of the fitted model (new
// binning, objective, sampling or split rule), and say in CHANGES.md why
// the model moved. A speed-up of the trainer must leave every hash as it
// is. The failure message prints the hash the tree now computes.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>

#include "core/lfo_model.hpp"
#include "features/dataset_builder.hpp"
#include "gbdt/gbdt.hpp"
#include "opt/opt.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace lfo;

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string model_dump(const gbdt::Model& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

/// A 20K-request production-mix window labelled by greedy OPT at a 5%
/// cache, with lfo_bench's feature schema (num_gaps = 50: 16 features)
/// or, with `thin_gaps` off, the paper's dense one (53 features).
gbdt::Dataset production_window(bool thin_gaps = true) {
  trace::GeneratorConfig gen;
  gen.num_requests = 20'000;
  gen.seed = 17;
  gen.cost_model = trace::CostModel::kByteHitRatio;
  gen.classes = trace::production_mix(0.05);
  const auto trace = trace::generate_trace(gen);
  core::LfoConfig lfo;
  lfo.set_cache_size(trace.unique_bytes() / 20);
  lfo.features.num_gaps = 50;
  lfo.features.thin_gaps = thin_gaps;
  const auto window = trace.window(0, trace.size());
  features::DatasetBuildOptions build;
  build.features = lfo.features;
  build.cache_size = lfo.cache_size;
  return features::build_dataset(window, opt::compute_opt(window, lfo.opt),
                                 build);
}

/// L2 targets around 1e9: the fixed-point unit must scale far from the
/// logistic objective's.
gbdt::Dataset huge_label_regression() {
  util::Rng rng(16);
  gbdt::Dataset data(3);
  for (int i = 0; i < 5000; ++i) {
    const float row[3] = {static_cast<float>(rng.uniform01()),
                          static_cast<float>(rng.pareto(1.0, 1.2)),
                          static_cast<float>(rng.uniform(8))};
    const float label = (row[0] > 0.5f ? 3e9f : 1e9f) + row[2] * 1e8f;
    data.add_row(row, label);
  }
  return data;
}

void expect_hash(const gbdt::Dataset& data, const gbdt::Params& params,
                 std::uint64_t expected, const char* what) {
  const auto hash = fnv1a64(model_dump(gbdt::train(data, params)));
  EXPECT_EQ(hash, expected)
      << what << ": model hash now 0x" << std::hex << hash;
}

TEST(GbdtGolden, ModelDumpsMatchRecordedHashes) {
  const auto window = production_window();
  ASSERT_EQ(window.num_features(), 16u);
  const auto params = gbdt::Params::paper_defaults();
  expect_hash(window, params, 0x1e7544ee9e3b2e75ULL, "production window");

  auto sampled = params;
  sampled.bagging_fraction = 0.7;
  sampled.feature_fraction = 0.6;
  expect_hash(window, sampled, 0x49c4d79cbc0a771aULL,
              "bagged, feature-sampled window");

  gbdt::Params l2;
  l2.objective = gbdt::Objective::kRegressionL2;
  l2.num_iterations = 20;
  l2.learning_rate = 0.3;
  expect_hash(huge_label_regression(), l2, 0x929874de16d68458ULL,
              "huge-label L2");

  const auto dense = production_window(false);
  ASSERT_EQ(dense.num_features(), 53u);
  expect_hash(dense, params, 0x3d663ef5b803418aULL, "dense-schema production window");
}

}  // namespace

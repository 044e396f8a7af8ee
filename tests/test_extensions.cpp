// Tests for the extension features: Bloom second-hit admission, the
// two-tier hierarchy (paper §5), cutoff auto-tuning (§3), training-time
// gap noise (§2.2), LfoModel persistence, and the loader's refusal of malformed model files.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/bloom_admission.hpp"
#include "cache/lru.hpp"
#include "cache/tiered.hpp"
#include "core/lfo_model.hpp"
#include "core/tuning.hpp"
#include "features/dataset_builder.hpp"
#include "trace/generator.hpp"

namespace lfo {
namespace {

using trace::Request;

Request req(trace::ObjectId o, std::uint64_t size = 1) {
  return {o, size, static_cast<double>(size)};
}

TEST(RotatingBloom, RemembersAndForgets) {
  cache::RotatingBloomFilter filter(1 << 12, 4, /*rotation_period=*/4);
  filter.insert(42);
  EXPECT_TRUE(filter.contains(42));
  EXPECT_FALSE(filter.contains(43));
  // Two full rotations push 42 out of both arrays.
  for (std::uint64_t k = 100; k < 110; ++k) filter.insert(k);
  EXPECT_FALSE(filter.contains(42));
}

TEST(RotatingBloom, SurvivesOneRotation) {
  cache::RotatingBloomFilter filter(1 << 12, 4, /*rotation_period=*/4);
  filter.insert(7);
  for (std::uint64_t k = 100; k < 104; ++k) filter.insert(k);  // 1 rotation
  EXPECT_TRUE(filter.contains(7));  // still in the aged array
}

TEST(SecondHit, AdmitsOnlyOnSecondRequest) {
  cache::SecondHitCache cache(100);
  cache.access(req(1, 10));
  EXPECT_FALSE(cache.contains(1));  // first sighting: filtered
  cache.access(req(1, 10));
  EXPECT_TRUE(cache.contains(1));  // second sighting: admitted
}

TEST(SecondHit, FiltersOneHitWonders) {
  // A stream dominated by one-hit wonders: SecondHit must keep the hot
  // set and beat plain LRU on hit ratio.
  trace::GeneratorConfig config;
  config.num_requests = 40000;
  config.seed = 91;
  trace::ContentClass hot;
  hot.num_objects = 50;
  hot.zipf_alpha = 1.0;
  hot.size_log_mean = std::log(1000.0);
  hot.size_log_sigma = 0.1;
  hot.traffic_share = 0.5;
  trace::ContentClass cold = hot;
  cold.num_objects = 100000;
  cold.zipf_alpha = 0.0;
  cold.traffic_share = 0.5;
  config.classes = {hot, cold};
  const auto t = trace::generate_trace(config);

  cache::SecondHitCache second(60000);
  cache::LruCache lru(60000);
  for (const auto& r : t.requests()) {
    second.access(r);
    lru.access(r);
  }
  EXPECT_GT(second.stats().ohr(), lru.stats().ohr());
}

TEST(Tiered, PromotionAndDemotion) {
  cache::TieredCache cache(/*fast=*/2, /*capacity=*/4);
  cache.access(req(1));
  cache.access(req(2));  // fast tier now full: {2, 1}
  cache.access(req(3));  // 1 demoted to the capacity tier
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.demotions(), 1u);
  EXPECT_EQ(cache.fast_used(), 2u);
  EXPECT_EQ(cache.capacity_used(), 1u);
  cache.access(req(1));  // capacity-tier hit: promoted back to fast
  EXPECT_EQ(cache.capacity_hits(), 1u);
  cache.access(req(2));  // 2 was demoted by 1's promotion; hits capacity
  EXPECT_EQ(cache.capacity_hits(), 2u);
}

TEST(Tiered, HitsCountAcrossTiers) {
  cache::TieredCache cache(4, 16);
  for (trace::ObjectId o = 0; o < 10; ++o) cache.access(req(o));
  // Everything still cached somewhere (4 fast + up to 16 capacity).
  std::uint64_t present = 0;
  for (trace::ObjectId o = 0; o < 10; ++o) present += cache.contains(o);
  EXPECT_EQ(present, 10u);
  for (trace::ObjectId o = 0; o < 10; ++o) cache.access(req(o));
  EXPECT_EQ(cache.stats().hits, 10u);
  EXPECT_EQ(cache.fast_hits() + cache.capacity_hits(), 10u);
}

TEST(Tiered, PlacementFunctionControlsAdmission) {
  cache::TieredCache cache(10, 100);
  cache.set_placement([](const Request& r) {
    if (r.size > 50) return cache::TieredCache::Tier::kBypass;
    return r.size > 5 ? cache::TieredCache::Tier::kCapacity
                      : cache::TieredCache::Tier::kFast;
  });
  cache.access(req(1, 3));    // -> fast
  cache.access(req(2, 20));   // -> capacity
  cache.access(req(3, 80));   // -> bypass
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_FALSE(cache.contains(3));
  EXPECT_EQ(cache.fast_used(), 3u);
  EXPECT_EQ(cache.capacity_used(), 20u);
}

TEST(Tiered, RejectsZeroTier) {
  EXPECT_THROW(cache::TieredCache(0, 10), std::invalid_argument);
  EXPECT_THROW(cache::TieredCache(10, 0), std::invalid_argument);
}

TEST(CutoffTuning, FindsEqualErrorAndMinErrorPoints) {
  const auto t = trace::generate_zipf_trace(15000, 600, 1.0, 92);
  core::LfoConfig config;
  config.set_cache_size(t.unique_bytes() / 6);
  std::span<const Request> reqs(t.requests());
  const auto trained = core::train_on_window(reqs, config);
  const auto tuning =
      core::tune_cutoff(*trained.model, reqs, trained.opt, config.cache_size);
  EXPECT_GT(tuning.equal_error_cutoff, 0.0);
  EXPECT_LT(tuning.equal_error_cutoff, 1.0);
  // The minimum error cannot exceed the error at the default cutoff.
  const auto confusion = core::evaluate_predictions(
      *trained.model, reqs, trained.opt, config.cache_size, 0.5);
  EXPECT_LE(tuning.min_error, 1.0 - confusion.accuracy() + 1e-12);
  // At the equal-error point, FP and FN shares should be close.
  const auto balanced = core::evaluate_predictions(
      *trained.model, reqs, trained.opt, config.cache_size,
      tuning.equal_error_cutoff);
  EXPECT_NEAR(balanced.false_positive_share(),
              balanced.false_negative_share(), 0.02);
}

TEST(CutoffTuning, RejectsMismatch) {
  const auto t = trace::generate_zipf_trace(1000, 100, 1.0, 93);
  core::LfoConfig config;
  config.set_cache_size(t.unique_bytes() / 4);
  std::span<const Request> reqs(t.requests());
  const auto trained = core::train_on_window(reqs, config);
  opt::OptDecisions wrong;  // empty
  EXPECT_THROW(
      core::tune_cutoff(*trained.model, reqs, wrong, config.cache_size),
      std::invalid_argument);
}

TEST(GapNoise, PerturbsOnlyRecordedGaps) {
  std::vector<Request> reqs{{0, 10, 10.0}, {0, 10, 10.0}, {0, 10, 10.0}};
  opt::OptDecisions d;
  d.cached = {1, 1, 0};
  d.cache_fraction = {1, 1, 0};
  features::DatasetBuildOptions clean;
  clean.features.num_gaps = 2;
  clean.features.missing_gap_value = -1.0f;
  auto noisy = clean;
  noisy.gap_noise_sigma = 0.3;
  noisy.noise_seed = 5;
  const auto a = features::build_dataset(reqs, d, clean);
  const auto b = features::build_dataset(reqs, d, noisy);
  const auto gap0 = clean.features.gap_offset();
  // Missing sentinel untouched; recorded gaps perturbed but positive.
  EXPECT_EQ(b.feature(0, gap0), -1.0f);
  EXPECT_NE(b.feature(1, gap0), a.feature(1, gap0));
  EXPECT_GT(b.feature(1, gap0), 0.0f);
  // Non-gap features identical.
  EXPECT_EQ(b.feature(1, 0), a.feature(1, 0));
}

TEST(GapNoise, SmallNoiseKeepsModelAccurate) {
  const auto t = trace::generate_zipf_trace(15000, 500, 1.0, 96);
  core::LfoConfig config;
  config.set_cache_size(t.unique_bytes() / 6);
  std::span<const Request> reqs(t.requests());
  const auto opt = opt::compute_opt(reqs, config.opt);

  features::DatasetBuildOptions noisy;
  noisy.features = config.features;
  noisy.cache_size = config.cache_size;
  noisy.gap_noise_sigma = 0.1;
  const auto data = features::build_dataset(reqs, opt, noisy);
  const auto model = gbdt::train(data, config.gbdt);
  EXPECT_GT(gbdt::accuracy(model, data), 0.8);
}

TEST(LfoModelPersistence, RoundTripPreservesPredictions) {
  const auto t = trace::generate_zipf_trace(8000, 300, 1.0, 97);
  core::LfoConfig config;
  config.set_cache_size(t.unique_bytes() / 5);
  config.features.num_gaps = 10;
  std::span<const Request> reqs(t.requests());
  const auto trained = core::train_on_window(reqs, config);

  std::stringstream ss;
  trained.model->save(ss);
  ASSERT_EQ(ss.str().rfind("lfo-model v2\n", 0), 0u);
  const auto back = core::LfoModel::load(ss);
  EXPECT_EQ(back.dimension(), trained.model->dimension());
  EXPECT_EQ(back.feature_config().num_gaps, 10u);

  util::Rng rng(98);
  std::vector<float> row(back.dimension());
  for (int i = 0; i < 50; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(100000));
    EXPECT_NEAR(back.predict(row), trained.model->predict(row), 1e-12);
  }
}

TEST(LfoModelPersistence, LoadRejectsGarbage) {
  std::stringstream ss("definitely not a model");
  EXPECT_THROW(core::LfoModel::load(ss), std::runtime_error);
}

// A hand-written lfo-model v2 file: a dense 2-gap schema (5 features)
// and a forest of one stump on feature 0. Each part can be replaced.
std::string model_file(
    const std::string& schema = "2 1 1 1 0 100000000",
    const std::string& forest = "0 1",
    const std::string& tree =
        "3\n0 0.5 1 2 0\n-1 0 -1 -1 -1\n-1 0 -1 -1 1\n") {
  return "lfo-model v2\n" + schema + "\nlfo-gbdt-model v1\n" + forest +
         "\n" + tree;
}

core::LfoModel load_text(const std::string& text) {
  std::stringstream ss(text);
  return core::LfoModel::load(ss);
}

// A v1 file's thin_gaps flag named the one-gap-per-octave schema (1, 2,
// 4, ...), not v2's log-spaced one, so its rows would be misread: v1 is
// refused, thin or dense.
TEST(LfoModelFile, RefusesVersionOneFiles) {
  for (const char* schema : {"2 1 1 1 0 100000000", "16 1 1 1 1 100000000"}) {
    auto text = model_file(schema);
    EXPECT_NO_THROW(load_text(text)) << schema;
    text.replace(text.find("v2"), 2, "v1");
    EXPECT_THROW(load_text(text), std::runtime_error) << schema;
  }
}

TEST(LfoModelFile, RejectsSplitsThatDoNotFormATree) {
  const auto model = load_text(model_file());  // the untouched file loads
  ASSERT_EQ(model.dimension(), 5u);
  const std::vector<float> row(5, 0.0f);
  EXPECT_DOUBLE_EQ(model.predict(row), gbdt::sigmoid(-1.0));

  const char* const forged[] = {
      // A child that is its own node (a cycle).
      "3\n0 0.5 0 2 0\n-1 0 -1 -1 -1\n-1 0 -1 -1 1\n",
      // A child past the last node.
      "3\n0 0.5 1 3 0\n-1 0 -1 -1 -1\n-1 0 -1 -1 1\n",
      // One child set, the other not.
      "3\n0 0.5 1 -1 0\n-1 0 -1 -1 -1\n-1 0 -1 -1 1\n",
      // A child with two parents.
      "5\n0 0.5 1 2 0\n0 0.5 2 3 0\n-1 0 -1 -1 1\n-1 0 -1 -1 2\n"
      "-1 0 -1 -1 3\n",
      // Nodes no split reaches.
      "3\n-1 0 -1 -1 0\n-1 0 -1 -1 1\n-1 0 -1 -1 2\n",
      // A split on a negative feature.
      "3\n-1 0.5 1 2 0\n-1 0 -1 -1 -1\n-1 0 -1 -1 1\n",
  };
  for (const char* tree : forged) {
    EXPECT_THROW(load_text(model_file("2 1 1 1 0 100000000", "0 1", tree)),
                 std::runtime_error)
        << tree;
  }
}

TEST(LfoModelFile, RejectsSplitFeaturesOutsideTheSchema) {
  const auto split_on = [](const std::string& feature) {
    return model_file("2 1 1 1 0 100000000", "0 1",
                      "3\n" + feature +
                          " 0.5 1 2 0\n-1 0 -1 -1 -1\n-1 0 -1 -1 1\n");
  };
  EXPECT_EQ(load_text(split_on("4")).dimension(), 5u);
  EXPECT_THROW(load_text(split_on("5")), std::runtime_error);
  EXPECT_THROW(load_text(split_on("100000000")), std::runtime_error);
}

TEST(LfoModelFile, RejectsGapCountsOutsideTheHistoryBound) {
  EXPECT_EQ(load_text(model_file("65535 1 1 1 0 100000000")).dimension(),
            65538u);
  for (const char* schema :
       {"0 1 1 1 0 100000000", "65536 1 1 1 0 100000000",
        "4294967295 1 1 1 0 100000000", "4294967295 1 1 1 1 100000000",
        "-1 1 1 1 0 100000000"}) {
    EXPECT_THROW(load_text(model_file(schema)), std::runtime_error)
        << schema;
  }
}

TEST(LfoModelFile, HeaderCountsReserveNothing) {
  // Counts far past what the file holds fail on the missing records.
  EXPECT_THROW(load_text(model_file("2 1 1 1 0 100000000",
                                    "0 1152921504606846976")),
               std::runtime_error);
  EXPECT_THROW(load_text(model_file(
                   "2 1 1 1 0 100000000", "0 1",
                   "1152921504606846976\n0 0.5 1 2 0\n-1 0 -1 -1 -1\n")),
               std::runtime_error);
}

TEST(LfoModelFile, RandomMutationsFuzz) {
  // A saved default model: 15 log-spaced features, 30 trees.
  const auto t = trace::generate_zipf_trace(6000, 400, 0.9, 31);
  core::LfoConfig config;
  config.set_cache_size(t.unique_bytes() / 5);
  const auto trained =
      core::train_on_window(std::span<const Request>(t.requests()), config);
  std::stringstream saved;
  trained.model->save(saved);
  const std::string text = saved.str();

  std::vector<std::pair<std::size_t, std::size_t>> tokens;  // begin, length
  const auto space = [&](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(text[i])) != 0;
  };
  for (std::size_t i = 0; i < text.size();) {
    while (i < text.size() && space(i)) ++i;
    const std::size_t begin = i;
    while (i < text.size() && !space(i)) ++i;
    if (i > begin) tokens.emplace_back(begin, i - begin);
  }
  const char* const huge[] = {"100000000", "2147483647", "4294967295",
                              "9223372036854775807",
                              "18446744073709551615"};

  util::Rng rng(2026);
  int loaded = 0;
  int refused = 0;
  for (int c = 0; c < 400; ++c) {
    std::string mutated = text;
    switch (rng.uniform(4)) {
      case 0:
        mutated.resize(rng.uniform(text.size()));
        break;
      case 1: {
        const auto [begin, length] = tokens[rng.uniform(tokens.size())];
        mutated.replace(begin, length, std::to_string(rng.uniform(128)));
        break;
      }
      case 2: {
        const auto [begin, length] = tokens[rng.uniform(tokens.size())];
        mutated.replace(begin, length,
                        "-" + std::to_string(1 + rng.uniform(1ULL << 40)));
        break;
      }
      default: {
        const auto [begin, length] = tokens[rng.uniform(tokens.size())];
        mutated.replace(begin, length, huge[rng.uniform(std::size(huge))]);
        break;
      }
    }
    try {
      const auto model = load_text(mutated);
      std::vector<float> row(model.dimension());
      for (auto& v : row) v = static_cast<float>(rng.uniform(100000));
      const double p = model.predict(row);
      ASSERT_TRUE(std::isfinite(p) && p >= 0.0 && p <= 1.0)
          << "case " << c << ": p = " << p;
      ++loaded;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  // Both outcomes occur, so the cases reach past the header.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace lfo

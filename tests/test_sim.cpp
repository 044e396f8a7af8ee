// Tests for the sweep framework, windowed swap-lag semantics, and the
// retraining-under-drift behaviour that motivates the whole windowed
// design.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "core/windowed.hpp"
#include "sim/sweep.hpp"
#include "trace/generator.hpp"

namespace lfo {
namespace {

TEST(Sweep, ProducesAllRequestedPoints) {
  const auto t = trace::generate_zipf_trace(5000, 300, 0.9, 101);
  sim::SweepConfig config;
  config.policies = {"LRU", "GDSF"};
  config.cache_fractions = {0.05, 0.2};
  config.include_opt = true;
  const auto points = sim::sweep_hit_ratio_curves(t, config);
  ASSERT_EQ(points.size(), 2u * 3u);  // 2 sizes x (2 policies + OPT)
  for (const auto& p : points) {
    EXPECT_GE(p.bhr, 0.0);
    EXPECT_LE(p.bhr, 1.0);
    EXPECT_GT(p.cache_size, 0u);
  }
}

TEST(Sweep, PointsListPoliciesThenOptPerSize) {
  const auto t = trace::generate_zipf_trace(3000, 200, 0.9, 104);
  sim::SweepConfig config;
  config.policies = {"GDSF", "LRU"};
  config.cache_fractions = {0.2, 0.05};
  const auto points = sim::sweep_hit_ratio_curves(t, config);
  const std::vector<std::pair<std::string, double>> expected{
      {"GDSF", 0.2}, {"LRU", 0.2}, {"OPT", 0.2},
      {"GDSF", 0.05}, {"LRU", 0.05}, {"OPT", 0.05}};
  ASSERT_EQ(points.size(), expected.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].policy, expected[i].first) << i;
    EXPECT_EQ(points[i].cache_fraction, expected[i].second) << i;
  }
  config.include_opt = false;
  EXPECT_EQ(sim::sweep_hit_ratio_curves(t, config).size(), 4u);
}

TEST(Sweep, CurvesAreMonotoneInCacheSize) {
  const auto t = trace::generate_zipf_trace(8000, 400, 0.9, 102);
  sim::SweepConfig config;
  config.policies = {"LRU"};
  config.cache_fractions = {0.02, 0.05, 0.1, 0.3};
  config.include_opt = true;
  const auto points = sim::sweep_hit_ratio_curves(t, config);
  std::map<std::string, double> last;
  for (const auto& p : points) {  // points ordered by fraction, then policy
    const auto it = last.find(p.policy);
    if (it != last.end()) {
      EXPECT_GE(p.bhr, it->second - 1e-9)
          << p.policy << " at " << p.cache_fraction;
    }
    last[p.policy] = p.bhr;
  }
}

TEST(Sweep, OptDominatesAtEveryPoint) {
  const auto t = trace::generate_zipf_trace(6000, 300, 1.0, 103);
  sim::SweepConfig config;
  config.policies = {"LRU", "LFUDA", "GDSF"};
  config.cache_fractions = {0.05, 0.15};
  const auto points = sim::sweep_hit_ratio_curves(t, config);
  std::map<double, double> opt_bhr;
  for (const auto& p : points) {
    if (p.policy == "OPT") opt_bhr[p.cache_fraction] = p.bhr;
  }
  for (const auto& p : points) {
    if (p.policy == "OPT") continue;
    EXPECT_LE(p.bhr, opt_bhr[p.cache_fraction] + 1e-9)
        << p.policy << " at " << p.cache_fraction;
  }
}

TEST(Sweep, CsvHasHeaderAndRows) {
  std::vector<sim::HrcPoint> points{{"LRU", 1024, 0.1, 0.5, 0.6}};
  std::ostringstream os;
  sim::write_hrc_csv(os, points);
  const auto text = os.str();
  EXPECT_NE(text.find("policy,cache_fraction"), std::string::npos);
  EXPECT_NE(text.find("LRU,0.1,1024,0.5,0.6"), std::string::npos);
}

TEST(Sweep, UnknownPolicyThrowsInvalidArgument) {
  // The unknown name comes after a policy that replays, at both sizes:
  // the error surfaces from the middle of the sweep, not before it.
  const auto t = trace::generate_zipf_trace(2000, 200, 0.9, 105);
  sim::SweepConfig config;
  config.policies = {"LRU", "NoSuchPolicy"};
  config.cache_fractions = {0.05, 0.2};
  EXPECT_THROW(sim::sweep_hit_ratio_curves(t, config), std::invalid_argument);
}

core::WindowedConfig fast_windowed(std::uint64_t cache_size,
                                   std::size_t window) {
  core::WindowedConfig config;
  config.lfo.set_cache_size(cache_size);
  config.lfo.gbdt.num_iterations = 10;
  config.lfo.features.num_gaps = 8;
  config.window_size = window;
  return config;
}

/// The frozen arm of the retraining ablation: serve window 0 on the
/// bootstrap policy, train one model on it, then replay the rest of the
/// trace through an LfoCache that keeps that model.
double frozen_lfo_bhr(const trace::Trace& t,
                      const core::WindowedConfig& config) {
  core::LfoCache cache(config.lfo.cache_size, config.lfo.features,
                       config.lfo.cutoff);
  const auto first = t.window(0, config.window_size);
  for (const auto& r : first) cache.access(r);
  cache.swap_model(core::train_on_window(first, config.lfo).model);
  for (const auto& r : t.window(config.window_size, t.size())) {
    cache.access(r);
  }
  return cache.stats().bhr();
}

TEST(SwapLag, DelaysModelActivation) {
  const auto t = trace::generate_zipf_trace(20000, 500, 1.0, 104);
  auto lag0 = fast_windowed(t.unique_bytes() / 6, 4000);
  auto lag2 = lag0;
  lag2.swap_lag = 2;
  const auto r0 = core::run_windowed_lfo(t, lag0);
  const auto r2 = core::run_windowed_lfo(t, lag2);
  // With lag 2, windows 1 and 2 are still served by the bootstrap
  // (admit-all) policy, so no out-of-sample prediction error can be
  // measured for them.
  EXPECT_GE(r0.windows[1].prediction_error, 0.0);
  EXPECT_LT(r2.windows[1].prediction_error, 0.0);
  EXPECT_LT(r2.windows[2].prediction_error, 0.0);
  EXPECT_GE(r2.windows[3].prediction_error, 0.0);
}

TEST(DriftAdaptation, PopularityReshuffleIsSurvivedByAFrozenModel) {
  // Pure popularity reshuffles change *which* object is popular, not what
  // the (shift-invariant) features mean — so a frozen model keeps working.
  // This is the paper's §2.2 robustness argument for gap features.
  trace::GeneratorConfig gen;
  gen.num_requests = 60000;
  gen.seed = 105;
  trace::ContentClass cc;
  cc.num_objects = 2000;
  cc.zipf_alpha = 1.1;
  cc.size_log_mean = std::log(4096.0);
  cc.size_log_sigma = 1.5;
  gen.classes = {cc};
  gen.drift.reshuffle_interval = 10000;
  gen.drift.reshuffle_fraction = 0.8;
  const auto t = trace::generate_trace(gen);

  const auto config = fast_windowed(t.unique_bytes() / 8, 10000);
  const double retrained = core::run_windowed_lfo(t, config).overall.bhr();
  const double frozen = frozen_lfo_bhr(t, config);
  // Frozen stays within a few points of retrained.
  EXPECT_GT(frozen, retrained - 0.05);
}

TEST(DriftAdaptation, RetrainingBeatsFrozenModelOnMixChange) {
  // When the *content mix* changes (the multi-CDN traffic shifts of the
  // paper's introduction), the feature->decision mapping itself changes:
  // a model trained on a small-object photo mix systematically mishandles
  // a large-object download mix. Continuous retraining must win here.
  trace::GeneratorConfig photos;
  photos.num_requests = 40000;
  photos.seed = 106;
  photos.classes = {trace::photo_class(3000)};
  auto t = trace::generate_trace(photos);

  trace::GeneratorConfig downloads;
  downloads.num_requests = 40000;
  downloads.seed = 107;
  downloads.classes = {trace::download_class(64)};
  const auto tail = trace::generate_trace(downloads);
  const auto offset = t.num_objects();
  for (const auto& r : tail.requests()) {
    t.push_back({r.object + offset, r.size, r.cost});
  }

  const auto config = fast_windowed(t.unique_bytes() / 10, 10000);
  const double retrained = core::run_windowed_lfo(t, config).overall.bhr();
  EXPECT_GT(retrained, frozen_lfo_bhr(t, config));
}

}  // namespace
}  // namespace lfo

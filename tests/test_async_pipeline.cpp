// Stress + observability tests of the retraining pipeline's training
// pool (WindowedConfig::train_threads > 0) and its inline schedule.
// Labeled "stress" so tools/run_static_checks.sh hammers it under
// ThreadSanitizer: many small windows with a deep training queue and
// nested GBDT parallelism maximize serve/train overlap.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/windowed.hpp"
#include "trace/generator.hpp"

namespace {

using namespace lfo;

core::WindowedConfig small_window_config() {
  core::WindowedConfig config;
  config.lfo.set_cache_size(1 << 21);
  config.lfo.features.num_gaps = 8;
  config.lfo.gbdt.num_iterations = 5;
  config.window_size = 500;
  return config;
}

TEST(AsyncPipeline, StressManyWindowsDeepQueue) {
  trace::GeneratorConfig gen;
  gen.num_requests = 12000;  // 24 windows
  gen.seed = 17;
  gen.classes = {trace::web_class(1500)};
  gen.drift.reshuffle_interval = 4000;
  gen.drift.reshuffle_fraction = 0.3;
  const auto trace = trace::generate_trace(gen);

  auto config = small_window_config();
  config.swap_lag = 3;
  config.train_threads = 4;
  const auto result = core::run_windowed_lfo(trace, config);

  ASSERT_EQ(result.windows.size(), 24u);
  EXPECT_EQ(result.overall.requests, gen.num_requests);
  for (const auto& w : result.windows) {
    // The queue can hold at most the in-flight lag window's jobs.
    EXPECT_LE(w.pipeline.queue_depth, config.swap_lag + 1);
    EXPECT_GE(w.pipeline.overlap_seconds, 0.0);
    EXPECT_GE(w.pipeline.wait_seconds, 0.0);
    EXPECT_GT(w.train_seconds, 0.0) << "window " << w.index;
  }
  // Every model waited out exactly swap_lag windows: the one trained on
  // window i activates at boundary i + swap_lag, and no boundary before
  // the first model's activates anything.
  for (std::size_t i = 0; i < config.swap_lag; ++i) {
    EXPECT_EQ(result.windows[i].rollout.decision,
              core::RolloutDecision::kNone)
        << "window " << i;
  }
  for (std::size_t i = 0; i + config.swap_lag + 1 < result.windows.size();
       ++i) {
    EXPECT_EQ(result.windows[i + config.swap_lag].rollout.decision,
              core::RolloutDecision::kActivated)
        << "window " << i;
  }
}

TEST(AsyncPipeline, StressMatchesSyncUnderDrift) {
  trace::GeneratorConfig gen;
  gen.num_requests = 8000;
  gen.seed = 29;
  gen.classes = {trace::web_class(1000), trace::video_class(200)};
  gen.drift.reshuffle_interval = 2500;
  gen.drift.flash_crowd_probability = 1.0;
  gen.drift.flash_crowd_duration = 1500;
  const auto trace = trace::generate_trace(gen);

  auto config = small_window_config();
  config.swap_lag = 2;
  config.train_threads = 0;
  const auto sync = core::run_windowed_lfo(trace, config);
  config.train_threads = 4;
  const auto async = core::run_windowed_lfo(trace, config);
  EXPECT_TRUE(core::same_decisions(sync, async));
}

TEST(AsyncPipeline, SingleWindowTrace) {
  // Edge: trace shorter than one window; the lone job trains but its
  // model never activates.
  const auto trace = trace::generate_zipf_trace(300, 50, 0.8, 3);
  auto config = small_window_config();
  config.swap_lag = 2;
  config.train_threads = 2;
  const auto result = core::run_windowed_lfo(trace, config);
  ASSERT_EQ(result.windows.size(), 1u);
  EXPECT_GT(result.windows[0].train_seconds, 0.0);
  EXPECT_EQ(result.windows[0].rollout.decision,
            core::RolloutDecision::kNone);
}

TEST(AsyncPipeline, InlineTrainingNeverOverlapsServing) {
  // train_threads = 0 runs every job on the serving thread before the
  // next window is served; the lag queue still holds the finished jobs.
  const auto trace = trace::generate_zipf_trace(3000, 300, 0.8, 11);
  auto config = small_window_config();
  config.swap_lag = 2;
  const auto result = core::run_windowed_lfo(trace, config);
  ASSERT_EQ(result.windows.size(), 6u);
  for (const auto& w : result.windows) {
    EXPECT_EQ(w.pipeline.overlap_seconds, 0.0) << "window " << w.index;
    EXPECT_EQ(w.pipeline.queue_depth, std::min<std::size_t>(w.index, 2))
        << "window " << w.index;
  }
}

TEST(AsyncPipeline, EmptyTrace) {
  const trace::Trace empty;
  auto config = small_window_config();
  config.train_threads = 2;
  const auto result = core::run_windowed_lfo(empty, config);
  EXPECT_TRUE(result.windows.empty());
  EXPECT_EQ(result.overall.requests, 0u);
}

}  // namespace

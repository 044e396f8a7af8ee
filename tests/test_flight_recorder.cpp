// obs::FlightRecorder suite: ring semantics, snapshot-delta consistency,
// JSONL dumps, and the acceptance-level timeline test — one frame per
// window on the 20-window rollout torture trace, with the
// activation/rejection/fallback/recovery schedule readable off the
// per-frame counter deltas and the rollout-state gauge.

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "core/rollout.hpp"
#include "core/windowed.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs_test_util.hpp"
#include "trace/generator.hpp"

namespace {

using namespace lfo;
using testutil::JsonParser;
using testutil::JsonValue;

TEST(FlightRecorder, RingEvictsOldestAndKeepsSequence) {
  obs::FlightRecorder recorder(3);
  for (int i = 0; i < 5; ++i) recorder.record("tick");
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.total_recorded(), 5u);
  const auto frames = recorder.history(10);
  ASSERT_EQ(frames.size(), 3u);
  // Oldest first; sequences 2, 3, 4 survive the eviction of 0 and 1.
  EXPECT_EQ(frames[0].sequence, 2u);
  EXPECT_EQ(frames[1].sequence, 3u);
  EXPECT_EQ(frames[2].sequence, 4u);
  EXPECT_LE(frames[0].monotonic_seconds, frames[2].monotonic_seconds);

  const auto last_two = recorder.history(2);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two[0].sequence, 3u);

  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  // Sequence numbering survives clear() so post-clear frames are
  // distinguishable from a fresh recorder's.
  EXPECT_EQ(recorder.record("after-clear").sequence, 5u);
}

TEST(FlightRecorder, CounterDeltasMatchIncrementsBetweenFrames) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& counter = registry.counter("test_flight_delta_total");
  counter.reset();

  obs::FlightRecorder recorder(8);
  counter.add(5);
  const auto first = recorder.record("a");
  counter.add(2);
  const auto second = recorder.record("b");
  const auto third = recorder.record("c");

  // First sighting contributes the full cumulative value.
  EXPECT_EQ(first.counter("test_flight_delta_total"), 5u);
  EXPECT_EQ(first.counter_delta("test_flight_delta_total"), 5u);
  EXPECT_EQ(second.counter("test_flight_delta_total"), 7u);
  EXPECT_EQ(second.counter_delta("test_flight_delta_total"), 2u);
  EXPECT_EQ(third.counter_delta("test_flight_delta_total"), 0u);
  // Missing names fall back to the caller's sentinel.
  EXPECT_EQ(third.counter("test_flight_no_such_total", 42u), 42u);
  EXPECT_EQ(third.counter_delta("test_flight_no_such_total", 42u), 42u);
}

TEST(FlightRecorder, CumulativeValuesAreMonotoneAcrossFrames) {
  auto& counter = obs::MetricsRegistry::instance().counter(
      "test_flight_monotone_total");
  counter.reset();
  obs::FlightRecorder recorder(16);
  for (int i = 0; i < 10; ++i) {
    counter.add(static_cast<std::uint64_t>(i));
    recorder.record("step");
  }
  const auto frames = recorder.history(16);
  ASSERT_EQ(frames.size(), 10u);
  std::uint64_t prev = 0;
  std::uint64_t delta_sum = 0;
  for (const auto& frame : frames) {
    const auto value = frame.counter("test_flight_monotone_total");
    EXPECT_GE(value, prev) << "cumulative counter went backwards";
    EXPECT_EQ(value - prev, frame.counter_delta("test_flight_monotone_total"))
        << "delta does not equal the cumulative step";
    delta_sum += frame.counter_delta("test_flight_monotone_total");
    prev = value;
  }
  EXPECT_EQ(delta_sum, counter.value());
}

TEST(FlightRecorder, DumpJsonlEveryLineParses) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("test_flight_jsonl_total").add(3);
  registry.gauge("test_flight_jsonl_gauge").set(1.25);

  obs::FlightRecorder recorder(4);
  recorder.record("first");
  recorder.record("second", 17);

  std::ostringstream os;
  recorder.dump_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    const auto doc = JsonParser(line).parse();
    ASSERT_TRUE(doc.has_value()) << "line " << lines << ": " << line;
    ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);
    EXPECT_NE(doc->find("sequence"), nullptr);
    EXPECT_NE(doc->find("label"), nullptr);
    EXPECT_NE(doc->find("counter_deltas"), nullptr);
    EXPECT_NE(doc->find("counters"), nullptr);
    EXPECT_NE(doc->find("gauges"), nullptr);
    EXPECT_NE(doc->find("histograms"), nullptr);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);

  // The second frame carries its window index; the first does not.
  const std::string text = os.str();
  const auto second_line = text.find("\"label\":\"second\"");
  ASSERT_NE(second_line, std::string::npos);
  EXPECT_NE(text.find("\"window_index\":17"), std::string::npos);
}

// ------------------------------------------------- windowed-pipeline wiring

TEST(FlightRecorder, RecordsOneFramePerWindowBoundary) {
  const auto trace = testutil::golden_trace("web");
  auto config = testutil::golden_lfo_config();
  obs::FlightRecorder recorder(64);
  config.flight_recorder = &recorder;
  const auto result = core::run_windowed_lfo(trace, config);
  ASSERT_FALSE(result.windows.empty());
  EXPECT_EQ(recorder.total_recorded(), result.windows.size());
  const auto frames = recorder.history(recorder.capacity());
  ASSERT_EQ(frames.size(), result.windows.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].label, "window");
    EXPECT_EQ(frames[i].window_index, result.windows[i].index);
  }
}

TEST(FlightRecorder, RecordingDoesNotChangeDecisions) {
  const auto trace = testutil::golden_trace("flash-crowd");
  auto config = testutil::golden_lfo_config();
  const auto bare = core::run_windowed_lfo(trace, config);
  obs::FlightRecorder recorder(8);  // deliberately smaller than #windows
  config.flight_recorder = &recorder;
  const auto recorded = core::run_windowed_lfo(trace, config);
  EXPECT_TRUE(core::same_decisions(bare, recorded));
  EXPECT_EQ(recorder.size(), 4u);  // 20000/5000 windows, ring of 8: 4 kept
}

// --------------------------------------------- rollout torture timeline

// The exact 20-window fault schedule of test_rollout.cpp
// (FlashCrowdWithInjectedFailuresFallsBackAndRecovers): candidates
// trained on windows [5,10) fail every attempt, the guard falls back at
// window 8 and recovers at window 11. Here the same story must be
// readable off the flight recorder alone: one frame per window, with the
// decision counters stepping exactly at the right frames.
trace::Trace torture_trace() {
  trace::GeneratorConfig gen;
  gen.num_requests = 20000;
  gen.seed = 303;
  gen.classes = {trace::web_class(3000)};
  gen.drift.reshuffle_interval = 5000;
  gen.drift.reshuffle_fraction = 0.3;
  gen.drift.flash_crowd_probability = 1.0;
  gen.drift.flash_crowd_share = 0.3;
  gen.drift.flash_crowd_duration = 3000;
  return trace::generate_trace(gen);
}

core::WindowedConfig torture_config() {
  core::WindowedConfig config;
  config.lfo.set_cache_size(4ULL << 20);
  config.lfo.features.num_gaps = 8;
  config.lfo.gbdt.num_iterations = 5;
  config.window_size = 1000;
  config.swap_lag = 1;
  // Only injected failures may reject (gates are unit-tested elsewhere).
  config.rollout.min_train_accuracy = 0.0;
  config.rollout.max_admission_delta = 1.0;
  config.train_fault = [](std::size_t window_index, std::uint32_t) {
    return window_index >= 5 && window_index < 10;
  };
  return config;
}

TEST(FlightRecorder, TortureTimelineIsReadableFromFrameDeltas) {
  // Inline training and a training pool must tell the same story,
  // frame for frame.
  for (const std::size_t threads : {0u, 2u}) {
    SCOPED_TRACE("train_threads=" + std::to_string(threads));
    const auto trace = torture_trace();
    auto config = torture_config();
    config.train_threads = threads;
    obs::FlightRecorder recorder(32);
    config.flight_recorder = &recorder;

    obs::MetricsRegistry::instance().reset_all();
    const auto result = core::run_windowed_lfo(trace, config);
    ASSERT_EQ(result.windows.size(), 20u);
    ASSERT_EQ(recorder.total_recorded(), 20u);
    const auto frames = recorder.history(32);
    ASSERT_EQ(frames.size(), 20u);

    std::uint64_t activated = 0, rejected = 0, fallbacks = 0, recovered = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto& frame = frames[i];
      EXPECT_EQ(frame.window_index, i);
      // The frame's rollout-state gauge is the post-boundary state of its
      // window, exactly as the per-window report records it.
      EXPECT_EQ(frame.gauge("lfo_rollout_state", -1.0),
                static_cast<double>(
                    static_cast<int>(result.windows[i].rollout.state)))
          << "window " << i;
      // The frame's counter deltas are exactly that window's decision.
      const auto decision = result.windows[i].rollout.decision;
      const std::uint64_t d_act =
          frame.counter_delta("lfo_rollout_activated_total");
      const std::uint64_t d_rej =
          frame.counter_delta("lfo_rollout_rejected_total");
      const std::uint64_t d_fb =
          frame.counter_delta("lfo_rollout_fallback_total");
      const std::uint64_t d_rec =
          frame.counter_delta("lfo_rollout_recovered_total");
      const auto expected_act =
          static_cast<std::uint64_t>(
              decision == core::RolloutDecision::kActivated ||
              decision == core::RolloutDecision::kRecovered);
      const auto expected_rej =
          static_cast<std::uint64_t>(
              decision == core::RolloutDecision::kRejected ||
              decision == core::RolloutDecision::kFallback);
      EXPECT_EQ(d_act, expected_act) << "window " << i;
      EXPECT_EQ(d_rej, expected_rej) << "window " << i;
      EXPECT_EQ(d_fb, static_cast<std::uint64_t>(
                          decision == core::RolloutDecision::kFallback))
          << "window " << i;
      EXPECT_EQ(d_rec, static_cast<std::uint64_t>(
                           decision == core::RolloutDecision::kRecovered))
          << "window " << i;
      activated += d_act;
      rejected += d_rej;
      fallbacks += d_fb;
      recovered += d_rec;
    }

    // The exact torture schedule, reconstructed from deltas alone.
    EXPECT_EQ(activated, 14u);  // 13 activations + 1 recovery
    EXPECT_EQ(rejected, 5u);    // 4 rejections + 1 fallback
    EXPECT_EQ(fallbacks, 1u);
    EXPECT_EQ(recovered, 1u);
    EXPECT_EQ(frames[8].counter_delta("lfo_rollout_fallback_total"), 1u);
    EXPECT_EQ(frames[8].gauge("lfo_rollout_state"),
              static_cast<double>(
                  static_cast<int>(core::RolloutState::kFallback)));
    EXPECT_EQ(frames[11].counter_delta("lfo_rollout_recovered_total"), 1u);
    EXPECT_EQ(frames[11].gauge("lfo_rollout_state"),
              static_cast<double>(
                  static_cast<int>(core::RolloutState::kServing)));
    EXPECT_EQ(frames[8].counter_delta("lfo_models_cleared_total"), 1u);

    // Training failures are visible frame-by-frame too: the cumulative
    // total across all frames matches the injected 5 jobs x 3 attempts.
    std::uint64_t failures = 0;
    for (const auto& frame : frames) {
      failures += frame.counter_delta("lfo_train_failures_total");
    }
    EXPECT_EQ(failures, 15u);
  }
}

}  // namespace

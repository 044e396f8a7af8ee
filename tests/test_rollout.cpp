// Rollout-guard suite (tier1 + faults labels): unit tests of the
// core::RolloutGuard state machine and obs::DriftTracker, plus
// fault-injected golden-trace runs of the windowed pipeline. The fault
// scenarios double as the `ctest -L faults` stage of
// tools/run_static_checks.sh: training jobs are failed deterministically
// via WindowedConfig::train_fault and the guarded pipeline must degrade
// to the heuristic, recover, and never decide differently from an
// unguarded run when no fault fires.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/rollout.hpp"
#include "core/windowed.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"
#include "obs_test_util.hpp"
#include "trace/generator.hpp"

namespace {

using namespace lfo;
using core::RolloutCandidate;
using core::RolloutConfig;
using core::RolloutDecision;
using core::RolloutGuard;
using core::RolloutState;
using testutil::CounterDelta;

RolloutCandidate good_candidate() {
  RolloutCandidate c;
  c.train_accuracy = 0.9;
  c.model_admit_share = 0.5;
  c.opt_admit_share = 0.5;
  c.feature_drift = 0.01;
  return c;
}

RolloutCandidate bad_candidate() {
  auto c = good_candidate();
  c.train_accuracy = 0.3;  // under every sensible gate
  return c;
}

RolloutCandidate failed_candidate() {
  RolloutCandidate c;
  c.train_failed = true;
  return c;
}

// ------------------------------------------------------------ DriftTracker

TEST(DriftTracker, StreakAccumulatesAndResetsOnQuietWindow) {
  obs::DriftTracker tracker(0.5, 3);
  tracker.observe(0.6);
  tracker.observe(0.7);
  EXPECT_EQ(tracker.streak(), 2u);
  EXPECT_FALSE(tracker.triggered());
  tracker.observe(0.1);  // quiet window breaks the streak
  EXPECT_EQ(tracker.streak(), 0u);
  tracker.observe(0.6);
  tracker.observe(0.6);
  tracker.observe(0.5);  // >= threshold counts
  EXPECT_TRUE(tracker.triggered());
}

TEST(DriftTracker, UnknownDriftLeavesStreakUntouched) {
  obs::DriftTracker tracker(0.5, 2);
  tracker.observe(0.9);
  tracker.observe(-1.0);  // "unknown" (no serving model): not evidence
  EXPECT_EQ(tracker.streak(), 1u);
  tracker.observe(0.9);
  EXPECT_TRUE(tracker.triggered());
}

TEST(DriftTracker, DisabledThresholdNeverTriggers) {
  obs::DriftTracker tracker(0.0, 1);
  tracker.observe(100.0);
  EXPECT_FALSE(tracker.triggered());
}

// ------------------------------------------------------------ RolloutGuard

TEST(RolloutGuard, ActivatesPassingCandidateFromBootstrap) {
  const CounterDelta activated("lfo_rollout_activated_total");
  RolloutGuard guard(RolloutConfig{});
  const auto verdict = guard.evaluate(good_candidate());
  EXPECT_EQ(verdict.decision, RolloutDecision::kActivated);
  EXPECT_TRUE(verdict.activate);
  EXPECT_FALSE(verdict.clear_model);
  EXPECT_EQ(guard.state(), RolloutState::kServing);
  EXPECT_EQ(activated(), 1u);
}

TEST(RolloutGuard, RejectsLowAccuracyWithReason) {
  RolloutGuard guard(RolloutConfig{});
  guard.evaluate(good_candidate());
  const auto verdict = guard.evaluate(bad_candidate());
  EXPECT_EQ(verdict.decision, RolloutDecision::kRejected);
  EXPECT_FALSE(verdict.activate);
  EXPECT_NE(verdict.reason.find("train_accuracy"), std::string::npos)
      << verdict.reason;
  // Last-good model keeps serving: still kServing, budget advanced.
  EXPECT_EQ(guard.state(), RolloutState::kServing);
  EXPECT_EQ(guard.consecutive_rejections(), 1u);
}

TEST(RolloutGuard, RejectsAdmissionShareCollapse) {
  RolloutGuard guard(RolloutConfig{});
  auto c = good_candidate();
  c.model_admit_share = 0.98;  // admit-everything collapse
  c.opt_admit_share = 0.40;
  const auto verdict = guard.evaluate(c);
  EXPECT_EQ(verdict.decision, RolloutDecision::kRejected);
  EXPECT_NE(verdict.reason.find("admission delta"), std::string::npos)
      << verdict.reason;
}

TEST(RolloutGuard, RejectionBudgetExhaustionFallsBackThenRecovers) {
  const CounterDelta fallbacks("lfo_rollout_fallback_total");
  const CounterDelta recoveries("lfo_rollout_recovered_total");
  RolloutConfig config;
  config.max_consecutive_rejections = 3;
  RolloutGuard guard(config);
  guard.evaluate(good_candidate());  // kServing

  EXPECT_EQ(guard.evaluate(bad_candidate()).decision,
            RolloutDecision::kRejected);
  EXPECT_EQ(guard.evaluate(failed_candidate()).decision,
            RolloutDecision::kRejected);
  const auto fallback = guard.evaluate(bad_candidate());
  EXPECT_EQ(fallback.decision, RolloutDecision::kFallback);
  EXPECT_TRUE(fallback.clear_model);
  EXPECT_NE(fallback.reason.find("rejection budget exhausted"),
            std::string::npos)
      << fallback.reason;
  EXPECT_EQ(guard.state(), RolloutState::kFallback);
  EXPECT_EQ(fallbacks(), 1u);

  // Further failures in fallback stay plain rejections (no re-fallback).
  EXPECT_EQ(guard.evaluate(bad_candidate()).decision,
            RolloutDecision::kRejected);
  EXPECT_EQ(fallbacks(), 1u);

  // A qualifying candidate ends the episode.
  const auto recovered = guard.evaluate(good_candidate());
  EXPECT_EQ(recovered.decision, RolloutDecision::kRecovered);
  EXPECT_TRUE(recovered.activate);
  EXPECT_EQ(guard.state(), RolloutState::kServing);
  EXPECT_EQ(recoveries(), 1u);
  EXPECT_EQ(guard.consecutive_rejections(), 0u);
}

TEST(RolloutGuard, BootstrapNeverFallsBack) {
  // There is no model to abandon before the first activation: rejection
  // storms in bootstrap stay rejections (the heuristic already serves).
  const CounterDelta fallbacks("lfo_rollout_fallback_total");
  RolloutConfig config;
  config.max_consecutive_rejections = 2;
  RolloutGuard guard(config);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(guard.evaluate(failed_candidate()).decision,
              RolloutDecision::kRejected);
    EXPECT_EQ(guard.state(), RolloutState::kBootstrap);
  }
  EXPECT_EQ(fallbacks(), 0u);
}

TEST(RolloutGuard, SustainedDriftTripsFallbackBeforeRejectionBudget) {
  RolloutConfig config;
  config.max_consecutive_rejections = 10;  // out of the way
  config.drift_fallback_threshold = 0.5;
  config.drift_fallback_windows = 2;
  RolloutGuard guard(config);
  guard.evaluate(good_candidate());  // kServing

  auto drifting = bad_candidate();
  drifting.feature_drift = 0.9;
  EXPECT_EQ(guard.evaluate(drifting).decision, RolloutDecision::kRejected);
  EXPECT_EQ(guard.drift_streak(), 1u);
  const auto fallback = guard.evaluate(drifting);
  EXPECT_EQ(fallback.decision, RolloutDecision::kFallback);
  EXPECT_NE(fallback.reason.find("sustained drift"), std::string::npos)
      << fallback.reason;
  EXPECT_EQ(guard.state(), RolloutState::kFallback);
}

TEST(RolloutGuard, ActivationResetsDriftStreak) {
  const CounterDelta fallbacks("lfo_rollout_fallback_total");
  RolloutConfig config;
  config.drift_fallback_threshold = 0.5;
  config.drift_fallback_windows = 3;
  RolloutGuard guard(config);
  auto drifting_good = good_candidate();
  drifting_good.feature_drift = 0.9;
  // A fresh model trained on the drifted window supersedes the stale
  // serving model, so activating it is the correct response to drift —
  // the streak restarts from the new baseline.
  guard.evaluate(drifting_good);
  guard.evaluate(drifting_good);
  guard.evaluate(drifting_good);
  EXPECT_EQ(guard.state(), RolloutState::kServing);
  EXPECT_EQ(guard.drift_streak(), 0u);
  EXPECT_EQ(fallbacks(), 0u);
}

TEST(RolloutGuard, DisabledGuardActivatesEverythingButNeverNullModels) {
  const CounterDelta activated("lfo_rollout_activated_total");
  const CounterDelta rejected("lfo_rollout_rejected_total");
  RolloutConfig config;
  config.enabled = false;
  RolloutGuard guard(config);
  EXPECT_EQ(guard.evaluate(bad_candidate()).decision,
            RolloutDecision::kActivated);
  // A failed training job has no model: even unguarded, the pipeline
  // must keep the last-good model rather than install a nullptr.
  const auto verdict = guard.evaluate(failed_candidate());
  EXPECT_EQ(verdict.decision, RolloutDecision::kRejected);
  EXPECT_FALSE(verdict.activate);
  EXPECT_FALSE(verdict.clear_model);
  // Unguarded transitions are counted like guarded ones.
  EXPECT_EQ(activated(), 1u);
  EXPECT_EQ(rejected(), 1u);
}

// ----------------------------------------------------- pipeline scenarios

// The flash-crowd golden generator (seed 303), resized to 20 windows of
// 1000 requests so the guard sees a long candidate sequence.
trace::Trace flash_crowd_trace() {
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

core::WindowedConfig small_window_config() {
  core::WindowedConfig config;
  // 4MB keeps the cache contended: admission decisions only matter when
  // not everything fits, so this is the regime where model serving must
  // beat the admit-all bootstrap heuristic (at >=16MB admit-all wins on
  // this trace and the BHR acceptance below would be vacuous).
  config.lfo.set_cache_size(4ULL << 20);
  config.lfo.features.num_gaps = 8;
  config.lfo.gbdt.num_iterations = 5;
  config.window_size = 1000;
  config.swap_lag = 1;
  return config;
}

/// Fail EVERY attempt of the jobs trained on windows [5, 10): with the
/// default budget of 3 consecutive rejections the pipeline serves models
/// for windows 0-4's candidates, falls back when candidate 7 exhausts
/// the budget, rejects 8-9 in fallback, and recovers on candidate 10.
bool fault_windows_5_to_9(std::size_t window_index, std::uint32_t) {
  return window_index >= 5 && window_index < 10;
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

TEST(RolloutPipeline, FlashCrowdWithInjectedFailuresFallsBackAndRecovers) {
  const auto trace = flash_crowd_trace();
  auto config = small_window_config();
  // Only injected failures may reject: neutralize the quality gates so
  // the decision schedule below is exact by construction (the gates
  // themselves are unit-tested above).
  config.rollout.min_train_accuracy = 0.0;
  config.rollout.max_admission_delta = 1.0;
  config.train_fault = &fault_windows_5_to_9;

  obs::MetricsRegistry::instance().reset_all();
  const auto guarded = core::run_windowed_lfo(trace, config);
  ASSERT_EQ(guarded.windows.size(), 20u);

  // Exact decision schedule: pops happen at windows 1..19 (swap_lag 1),
  // evaluating the candidates trained on windows 0..18.
  int activated = 0, rejected = 0, fallbacks = 0, recovered = 0;
  for (const auto& w : guarded.windows) {
    switch (w.rollout.decision) {
      case core::RolloutDecision::kActivated: ++activated; break;
      case core::RolloutDecision::kRejected: ++rejected; break;
      case core::RolloutDecision::kFallback: ++fallbacks; break;
      case core::RolloutDecision::kRecovered: ++recovered; break;
      case core::RolloutDecision::kNone: break;
    }
  }
  EXPECT_EQ(activated, 13);  // candidates 0-4 and 11-18
  EXPECT_EQ(rejected, 4);    // candidates 5, 6 (serving) and 8, 9 (fallback)
  EXPECT_EQ(fallbacks, 1);   // candidate 7 exhausts the budget of 3
  EXPECT_EQ(recovered, 1);   // candidate 10 ends the episode

  // The episode is visible on the per-window state record...
  EXPECT_EQ(guarded.windows[7].rollout.state, core::RolloutState::kServing);
  EXPECT_EQ(guarded.windows[8].rollout.state, core::RolloutState::kFallback);
  EXPECT_EQ(guarded.windows[8].rollout.decision,
            core::RolloutDecision::kFallback);
  EXPECT_EQ(guarded.windows[10].rollout.state,
            core::RolloutState::kFallback);
  EXPECT_EQ(guarded.windows[11].rollout.decision,
            core::RolloutDecision::kRecovered);
  EXPECT_EQ(guarded.windows[11].rollout.state, core::RolloutState::kServing);
  EXPECT_EQ(guarded.windows[19].rollout.state, core::RolloutState::kServing);
  // ...and the failed jobs' attempt records on their training windows.
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_TRUE(guarded.windows[i].rollout.train_failed) << "window " << i;
    EXPECT_EQ(guarded.windows[i].rollout.train_attempts,
              1 + core::kMaxTrainRetries)
        << "window " << i;
  }
  EXPECT_FALSE(guarded.windows[4].rollout.train_failed);

  // Every transition surfaced in the metrics registry.
  EXPECT_EQ(counter_value("lfo_rollout_activated_total"), 14u);  // 13 + 1
  EXPECT_EQ(counter_value("lfo_rollout_rejected_total"), 5u);    // 4 + 1
  EXPECT_EQ(counter_value("lfo_rollout_fallback_total"), 1u);
  EXPECT_EQ(counter_value("lfo_rollout_recovered_total"), 1u);
  EXPECT_EQ(counter_value("lfo_models_cleared_total"), 1u);
  // 5 failed jobs x (1 first try + 2 retries), all attempts failing.
  EXPECT_EQ(counter_value("lfo_train_failures_total"), 15u);
  EXPECT_EQ(counter_value("lfo_train_retries_total"), 10u);

  // Acceptance gate: under training failures the guarded pipeline may
  // not do worse than never having a model at all (the heuristic-only
  // baseline = every training job failing).
  auto heuristic_config = config;
  heuristic_config.train_fault = [](std::size_t, std::uint32_t) {
    return true;
  };
  const auto heuristic =
      core::run_windowed_lfo(trace, heuristic_config);
  const auto bhr = [](const core::WindowedResult& r) {
    return static_cast<double>(r.overall.bytes_hit) /
           static_cast<double>(r.overall.bytes_requested);
  };
  EXPECT_GE(bhr(guarded), bhr(heuristic))
      << "guarded BHR " << bhr(guarded) << " fell below the heuristic-only "
      << "baseline " << bhr(heuristic);
  // And the all-failing run itself never leaves bootstrap.
  for (const auto& w : heuristic.windows) {
    EXPECT_EQ(w.rollout.state, core::RolloutState::kBootstrap);
  }
}

TEST(RolloutPipeline, FaultedRunIsDeterministicAcrossSyncAndAsync) {
  const auto trace = flash_crowd_trace();
  auto config = small_window_config();
  config.rollout.min_train_accuracy = 0.0;
  config.rollout.max_admission_delta = 1.0;
  config.train_fault = &fault_windows_5_to_9;

  const auto sync = core::run_windowed_lfo(trace, config);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    config.train_threads = threads;
    const auto async = core::run_windowed_lfo(trace, config);
    EXPECT_TRUE(core::same_decisions(sync, async))
        << "fault-injected run on " << threads
        << " training threads diverged from the inline schedule";
  }
}

TEST(RolloutPipeline, RetrySalvagesTransientFault) {
  const auto trace = flash_crowd_trace();
  auto config = small_window_config();
  config.rollout.min_train_accuracy = 0.0;
  config.rollout.max_admission_delta = 1.0;
  // Every job's FIRST attempt fails; the retry succeeds. The decision
  // record must be indistinguishable from a fault-free run.
  config.train_fault = [](std::size_t, std::uint32_t attempt) {
    return attempt == 1;
  };
  const auto flaky = core::run_windowed_lfo(trace, config);
  auto clean_config = config;
  clean_config.train_fault = nullptr;
  const auto clean = core::run_windowed_lfo(trace, clean_config);
  EXPECT_TRUE(core::same_decisions(flaky, clean))
      << "a salvaged retry changed decisions";
  for (const auto& w : flaky.windows) {
    EXPECT_FALSE(w.rollout.train_failed) << "window " << w.index;
    EXPECT_EQ(w.rollout.train_attempts, 2u) << "window " << w.index;
  }
}

TEST(RolloutPipeline, StationaryWebNeverLeavesModelServing) {
  // The stationary web golden generator: no drift, no faults — with
  // DEFAULT gate thresholds the guard must activate every candidate and
  // never reject, fall back, or touch its budgets.
  trace::GeneratorConfig gen;
  gen.num_requests = 20000;
  gen.seed = 101;
  gen.classes = {trace::web_class(4000)};
  const auto trace = trace::generate_trace(gen);
  const auto config = small_window_config();  // default RolloutConfig

  const auto result = core::run_windowed_lfo(trace, config);
  ASSERT_EQ(result.windows.size(), 20u);
  EXPECT_EQ(result.windows[0].rollout.state, core::RolloutState::kBootstrap);
  for (std::size_t i = 1; i < result.windows.size(); ++i) {
    const auto& r = result.windows[i].rollout;
    EXPECT_EQ(r.state, core::RolloutState::kServing) << "window " << i;
    EXPECT_EQ(r.decision, core::RolloutDecision::kActivated)
        << "window " << i << ": " << r.reason;
    EXPECT_EQ(r.consecutive_rejections, 0u);
    EXPECT_EQ(r.train_attempts, 1u);
  }
}

TEST(RolloutPipeline, GuardedMatchesUnguardedOnGoldenConfigs) {
  // Acceptance: with no failures injected the guard is invisible — the
  // guarded and unguarded pipelines make bitwise-identical decisions on
  // the golden web and video scenarios (full golden run_lfo config).
  struct Scenario {
    std::uint64_t seed;
    bool video;
    std::uint64_t cache_size;
  };
  const Scenario scenarios[] = {{101, false, 32ULL << 20},
                                {202, true, 192ULL << 20}};
  for (const auto& s : scenarios) {
    SCOPED_TRACE("seed " + std::to_string(s.seed));
    trace::GeneratorConfig gen;
    gen.num_requests = 20000;
    gen.seed = s.seed;
    gen.classes = {s.video ? trace::video_class(800)
                           : trace::web_class(4000)};
    const auto trace = trace::generate_trace(gen);

    core::WindowedConfig config;
    config.lfo.set_cache_size(s.cache_size);
    config.lfo.features.num_gaps = 20;
    config.lfo.gbdt.num_iterations = 15;
    config.window_size = 5000;
    config.swap_lag = 1;

    const auto guarded = core::run_windowed_lfo(trace, config);
    auto unguarded_config = config;
    unguarded_config.rollout.enabled = false;
    const auto unguarded = core::run_windowed_lfo(trace, unguarded_config);

    // same_decisions compares the rollout record too, which legitimately
    // differs in `state` naming (both end up kServing here) — the real
    // assertion is that every decision-bearing field matches.
    EXPECT_TRUE(core::same_decisions(guarded, unguarded))
        << "the enabled guard changed decisions on a clean golden run";
    for (const auto& w : guarded.windows) {
      EXPECT_NE(w.rollout.decision, core::RolloutDecision::kRejected)
          << "window " << w.index << ": " << w.rollout.reason;
      EXPECT_NE(w.rollout.decision, core::RolloutDecision::kFallback)
          << "window " << w.index << ": " << w.rollout.reason;
    }
  }
}

}  // namespace

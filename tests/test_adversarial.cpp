// Adversarial-workload suite (tier1 + faults labels): RolloutGuard
// torture tests on the hostile scenario presets from trace/scenario.hpp.
// Where test_rollout.cpp drives the guard with *injected* training
// failures, this file drives it with *traffic*: the flood and inversion
// presets genuinely degrade the serving model's out-of-sample accuracy,
// and the min_serving_accuracy gate must walk the exact
// reject -> fallback -> recover schedule calibrated below. Freshness
// (Request::ttl) is exercised end to end: expired hits are counted as
// misses, and a death test pins the contract that a stale entry can
// never be served.
//
// The exact schedules depend on the scenario presets and the GBDT
// training path; regenerating the golden traces (see
// test_golden_traces.cpp) after an intentional behaviour change will
// generally require re-deriving the decision counts here too (run the
// pipeline with the config below and read off the per-window decisions).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <string>

#include "core/lfo_cache.hpp"
#include "core/windowed.hpp"
#include "features/features.hpp"
#include "obs/metrics.hpp"
#include "trace/scenario.hpp"
#include "util/check.hpp"

namespace {

using namespace lfo;
using core::RolloutDecision;
using core::RolloutState;

// Contended serving config shared by every torture run: 4 MiB cache
// against the presets' ~3000-object web catalog, 20 windows of 1000
// requests. Quality gates other than the serving-accuracy gate are
// neutralized so the schedules below are driven by one mechanism (the
// gates themselves are unit-tested in test_rollout.cpp).
core::WindowedConfig torture_config() {
  core::WindowedConfig config;
  config.lfo.set_cache_size(trace::scenario::contended_cache_size());
  config.lfo.features.num_gaps = 8;
  config.lfo.gbdt.num_iterations = 5;
  config.window_size = 1000;
  config.swap_lag = 1;
  config.rollout.min_train_accuracy = 0.0;
  config.rollout.max_admission_delta = 1.0;
  config.rollout.drift_fallback_threshold = 0.0;
  config.drift_warn_threshold = 0.0;
  // Calibrated against the presets: the steady-state serving accuracy on
  // both traces is >= 0.753, the hostile phases push it to 0.652-0.746.
  config.rollout.min_serving_accuracy = 0.75;
  config.rollout.max_consecutive_rejections = 3;
  return config;
}

struct DecisionCounts {
  int activated = 0;
  int rejected = 0;
  int fallbacks = 0;
  int recovered = 0;
};

DecisionCounts count_decisions(const core::WindowedResult& result) {
  DecisionCounts counts;
  for (const auto& w : result.windows) {
    switch (w.rollout.decision) {
      case RolloutDecision::kActivated: ++counts.activated; break;
      case RolloutDecision::kRejected: ++counts.rejected; break;
      case RolloutDecision::kFallback: ++counts.fallbacks; break;
      case RolloutDecision::kRecovered: ++counts.recovered; break;
      case RolloutDecision::kNone: break;
    }
  }
  return counts;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

double bhr(const core::WindowedResult& r) {
  return static_cast<double>(r.overall.bytes_hit) /
         static_cast<double>(r.overall.bytes_requested);
}

// The heuristic-only baseline: every training job fails, so the pipeline
// never leaves bootstrap (admit-all LRU-by-likelihood). The guarded run
// must never fall below it — that is the whole point of the guard.
core::WindowedResult run_heuristic_baseline(const trace::Trace& trace) {
  auto config = torture_config();
  config.train_fault = [](std::size_t, std::uint32_t) { return true; };
  return core::run_windowed_lfo(trace, config);
}

// ------------------------------------------------------- flood torture

// One-hit-wonder flood, requests [8000, 14000), 60% replacement. The
// model *during* the flood scores brilliantly (bypassing one-hit wonders
// is easy); the poison shows at flood END: candidates trained on flood
// windows over-bypass the re-emerging hot set, and their serving
// accuracy collapses to 0.693/0.721/0.729 on windows 14-16 before the
// post-flood retrain restores >= 0.79.
TEST(AdversarialFlood, GuardFallsBackAtFloodEndAndRecovers) {
  const auto trace = trace::scenario::make_scenario_trace("flood");
  obs::MetricsRegistry::instance().reset_all();
  const auto guarded = core::run_windowed_lfo(trace, torture_config());
  ASSERT_EQ(guarded.windows.size(), 20u);

  // Exact decision schedule (pops at windows 1..19 evaluate candidates
  // trained on windows 0..18):
  //   w1-w14  activated  (candidates 0-13: bootstrap + steady + in-flood)
  //   w15     rejected   (candidate 14, trained at flood end: 0.693)
  //   w16     rejected   (candidate 15: 0.721)
  //   w17     fallback   (candidate 16: 0.729 exhausts the budget of 3)
  //   w18     recovered  (candidate 17, trained with no serving model)
  //   w19     activated  (candidate 18, post-flood steady state)
  const auto counts = count_decisions(guarded);
  EXPECT_EQ(counts.activated, 15);
  EXPECT_EQ(counts.rejected, 2);
  EXPECT_EQ(counts.fallbacks, 1);
  EXPECT_EQ(counts.recovered, 1);

  EXPECT_EQ(guarded.windows[14].rollout.decision, RolloutDecision::kActivated);
  EXPECT_EQ(guarded.windows[15].rollout.decision, RolloutDecision::kRejected);
  EXPECT_EQ(guarded.windows[16].rollout.decision, RolloutDecision::kRejected);
  EXPECT_EQ(guarded.windows[16].rollout.state, RolloutState::kServing);
  EXPECT_EQ(guarded.windows[17].rollout.decision, RolloutDecision::kFallback);
  EXPECT_EQ(guarded.windows[17].rollout.state, RolloutState::kFallback);
  EXPECT_EQ(guarded.windows[18].rollout.decision, RolloutDecision::kRecovered);
  EXPECT_EQ(guarded.windows[18].rollout.state, RolloutState::kServing);
  EXPECT_EQ(guarded.windows[19].rollout.decision, RolloutDecision::kActivated);
  EXPECT_EQ(guarded.windows[19].rollout.state, RolloutState::kServing);

  // The fallback reason names the failing gate and the budget.
  EXPECT_NE(guarded.windows[17].rollout.reason.find("serving_accuracy"),
            std::string::npos)
      << guarded.windows[17].rollout.reason;
  EXPECT_NE(guarded.windows[17].rollout.reason.find("budget"),
            std::string::npos)
      << guarded.windows[17].rollout.reason;

  // activated_total also counts the recovery; rejected_total also counts
  // the rejection that triggered the fallback (same as test_rollout.cpp).
  EXPECT_EQ(counter("lfo_rollout_activated_total"), 16u);  // 15 + 1
  EXPECT_EQ(counter("lfo_rollout_rejected_total"), 3u);    // 2 + 1
  EXPECT_EQ(counter("lfo_rollout_fallback_total"), 1u);
  EXPECT_EQ(counter("lfo_rollout_recovered_total"), 1u);

  // Acceptance gate: guarded >= heuristic-only on the hostile trace.
  const auto heuristic = run_heuristic_baseline(trace);
  EXPECT_GE(bhr(guarded), bhr(heuristic))
      << "guarded BHR " << bhr(guarded)
      << " fell below the heuristic-only baseline " << bhr(heuristic);
}

// --------------------------------------------------- inversion torture

// Oscillating popularity inversion: the top-100 ranking flips every 500
// requests through [10000, 16000), then holds permanently (re-stabilized
// traffic in the new ranking). The churn keeps recency/frequency
// features systematically stale — serving accuracy sits at 0.652-0.746
// for the whole phase — and the stable tail is what lets the recovery
// stick instead of churning forever.
TEST(AdversarialInversion, GuardRidesOutChurnAndRecoversOnStableTail) {
  const auto trace = trace::scenario::make_scenario_trace("inversion");
  obs::MetricsRegistry::instance().reset_all();
  const auto guarded = core::run_windowed_lfo(trace, torture_config());
  ASSERT_EQ(guarded.windows.size(), 20u);

  // Exact decision schedule:
  //   w1-w10  activated  (candidates 0-9: bootstrap + stable prefix)
  //   w11     rejected   (candidate 10, first churn window: 0.745)
  //   w12     rejected   (candidate 11: 0.715)
  //   w13     fallback   (candidate 12: 0.711 exhausts the budget of 3)
  //   w14     rejected   (candidate 13, trained before the model was
  //                       cleared, still scores the old model: 0.652)
  //   w15     recovered  (candidate 14, trained with no serving model)
  //   w16-w17 activated  (fresh models learn the flipped ranking)
  //   w18     rejected   (candidate 17 scores 0.746 on the boundary
  //                       window where the flip becomes permanent —
  //                       a marginal rejection, NOT a second fallback)
  //   w19     activated  (stable tail)
  const auto counts = count_decisions(guarded);
  EXPECT_EQ(counts.activated, 13);
  EXPECT_EQ(counts.rejected, 4);
  EXPECT_EQ(counts.fallbacks, 1);
  EXPECT_EQ(counts.recovered, 1);

  EXPECT_EQ(guarded.windows[10].rollout.decision, RolloutDecision::kActivated);
  EXPECT_EQ(guarded.windows[11].rollout.decision, RolloutDecision::kRejected);
  EXPECT_EQ(guarded.windows[12].rollout.decision, RolloutDecision::kRejected);
  EXPECT_EQ(guarded.windows[13].rollout.decision, RolloutDecision::kFallback);
  EXPECT_EQ(guarded.windows[13].rollout.state, RolloutState::kFallback);
  EXPECT_EQ(guarded.windows[14].rollout.decision, RolloutDecision::kRejected);
  EXPECT_EQ(guarded.windows[14].rollout.state, RolloutState::kFallback);
  EXPECT_EQ(guarded.windows[15].rollout.decision, RolloutDecision::kRecovered);
  EXPECT_EQ(guarded.windows[15].rollout.state, RolloutState::kServing);
  EXPECT_EQ(guarded.windows[18].rollout.decision, RolloutDecision::kRejected);
  EXPECT_EQ(guarded.windows[18].rollout.state, RolloutState::kServing);
  EXPECT_EQ(guarded.windows[19].rollout.decision, RolloutDecision::kActivated);
  EXPECT_EQ(guarded.windows[19].rollout.state, RolloutState::kServing);

  EXPECT_EQ(counter("lfo_rollout_activated_total"), 14u);  // 13 + 1
  EXPECT_EQ(counter("lfo_rollout_rejected_total"), 5u);    // 4 + 1
  EXPECT_EQ(counter("lfo_rollout_fallback_total"), 1u);
  EXPECT_EQ(counter("lfo_rollout_recovered_total"), 1u);
  EXPECT_EQ(counter("lfo_models_cleared_total"), 1u);

  const auto heuristic = run_heuristic_baseline(trace);
  EXPECT_GE(bhr(guarded), bhr(heuristic))
      << "guarded BHR " << bhr(guarded)
      << " fell below the heuristic-only baseline " << bhr(heuristic);
}

// The torture runs must be decision-identical between inline training
// and a training pool — the guard's schedule is part of the decision
// record same_decisions compares.
TEST(AdversarialTorture, SyncAndAsyncWalkTheSameSchedule) {
  for (const auto* name : {"flood", "inversion"}) {
    const auto trace = trace::scenario::make_scenario_trace(name);
    auto config = torture_config();
    const auto sync = core::run_windowed_lfo(trace, config);
    config.train_threads = 4;
    const auto async = core::run_windowed_lfo(trace, config);
    EXPECT_TRUE(core::same_decisions(sync, async))
        << name << ": pooled run diverged from the inline torture schedule";
  }
}

// Scan and freshness do not trip the serving-accuracy gate (the model
// learns to bypass the scan; TTLs do not change what is learnable) —
// but the guarded pipeline must still beat the heuristic baseline on
// them, completing the four-scenario acceptance matrix.
TEST(AdversarialTorture, GuardedBeatsHeuristicOnEveryScenario) {
  for (const auto& name : trace::scenario::scenario_names()) {
    const auto trace = trace::scenario::make_scenario_trace(name);
    const auto guarded = core::run_windowed_lfo(trace, torture_config());
    const auto heuristic = run_heuristic_baseline(trace);
    EXPECT_GE(bhr(guarded), bhr(heuristic))
        << name << ": guarded BHR " << bhr(guarded)
        << " fell below the heuristic-only baseline " << bhr(heuristic);
  }
}

// ------------------------------------------------------------ freshness

TEST(AdversarialFreshness, ExpiredHitsAreCountedAndSurviveTheGuard) {
  const auto trace = trace::scenario::make_scenario_trace("freshness");
  const auto result = core::run_windowed_lfo(trace, torture_config());
  // Half the catalog carries ttls of 500-4000 logical requests against a
  // 20000-request trace: expiry MUST fire, and more than incidentally.
  EXPECT_GT(result.overall.expired_hits, 50u);
  // Expired hits are misses: the identity hits + misses = requests must
  // hold with expired_hits counted on the miss side.
  EXPECT_EQ(result.overall.requests, 20000u);
  EXPECT_LT(result.overall.hits + result.overall.expired_hits,
            result.overall.requests);
}

TEST(AdversarialFreshness, TtlFreeScenariosNeverExpire) {
  for (const auto* name : {"flood", "scan", "inversion"}) {
    const auto trace = trace::scenario::make_scenario_trace(name);
    const auto result = core::run_windowed_lfo(trace, torture_config());
    EXPECT_EQ(result.overall.expired_hits, 0u) << name;
  }
}

// ------------------------------------------------------- stale-serve death

// Expose the protected hit path so the death test can drive a request
// directly at it, bypassing CachePolicy::access()'s expiry re-route.
class RawHitLfoCache : public core::LfoCache {
 public:
  using core::LfoCache::LfoCache;
  void raw_hit(const trace::Request& request) { on_hit(request); }
};

struct DeathResult {
  bool aborted = false;
  bool exited_clean = false;
  std::string stderr_text;
};

/// Run fn() in a forked child with stderr captured (same production-path
/// abort harness as test_check_death.cpp: no re-exec, no extra threads).
DeathResult run_in_fork(void (*fn)()) {
  DeathResult result;
  int fds[2];
  if (pipe(fds) != 0) {
    ADD_FAILURE() << "pipe() failed";
    return result;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork() failed";
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    dup2(fds[1], STDERR_FILENO);
    close(fds[1]);
    fn();
    _exit(0);
  }
  close(fds[1]);
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    result.stderr_text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  result.aborted = WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT;
  result.exited_clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return result;
}

void serve_stale_object() {
  features::FeatureConfig features;
  features.num_gaps = 4;
  RawHitLfoCache cache(1 << 20, features);
  // Admit object 0 with a ttl of 2 requests, then advance the logical
  // clock past its deadline with requests for other objects.
  const trace::Request expiring{0, 1024, 1024.0, /*ttl=*/2};
  cache.access(expiring);
  cache.access({1, 1024, 1024.0});
  cache.access({2, 1024, 1024.0});
  cache.access({3, 1024, 1024.0});
  // access() would route this through on_expired/on_miss; jamming it
  // straight into on_hit models a broken caller serving the stale copy.
  cache.raw_hit(expiring);
}

TEST(AdversarialFreshness, ServingAnExpiredObjectAborts) {
  const auto death = run_in_fork(&serve_stale_object);
  EXPECT_TRUE(death.aborted)
      << "serving a stale entry must abort; stderr: " << death.stderr_text;
  EXPECT_NE(death.stderr_text.find("expired"), std::string::npos)
      << "missing contract text in: " << death.stderr_text;
}

void expire_through_access_path() {
  features::FeatureConfig features;
  features.num_gaps = 4;
  RawHitLfoCache cache(1 << 20, features);
  const trace::Request expiring{0, 1024, 1024.0, /*ttl=*/2};
  cache.access(expiring);
  cache.access({1, 1024, 1024.0});
  cache.access({2, 1024, 1024.0});
  cache.access({3, 1024, 1024.0});
  // The legitimate path: access() sees the stale entry, counts an
  // expired hit, drops it and re-admits. No abort.
  const bool hit = cache.access(expiring);
  if (hit) LFO_CHECK(false) << "expired access must not report a hit";
  LFO_CHECK(cache.stats().expired_hits == 1) << "expired hit not counted";
}

TEST(AdversarialFreshness, AccessPathReAdmitsExpiredObjectWithoutAborting) {
  const auto death = run_in_fork(&expire_through_access_path);
  EXPECT_TRUE(death.exited_clean)
      << "legitimate expiry path aborted; stderr: " << death.stderr_text;
  EXPECT_EQ(death.stderr_text, "");
}

// Regression: admission set the freshness deadline to clock() + ttl, which
// wraps for a ttl near 2^64, so such a copy was an expired hit on its very
// next access. The deadline now saturates at "never expires".
TEST(AdversarialFreshness, TtlNearTheEndOfTheClockNeverWraps) {
  features::FeatureConfig features;
  features.num_gaps = 4;
  core::LfoCache cache(1 << 20, features);
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  const trace::Request forever{0, 1024, 1024.0, /*ttl=*/kMax};
  const trace::Request almost{1, 1024, 1024.0, /*ttl=*/kMax - 1};
  const trace::Request bounded{2, 1024, 1024.0, /*ttl=*/1000};
  for (const auto& r : {forever, almost, bounded}) {
    EXPECT_FALSE(cache.access(r)) << "object " << r.object;
  }
  for (std::uint64_t other = 3; other < 8; ++other) {
    cache.access({other, 1024, 1024.0});
  }
  for (const auto& r : {forever, almost, bounded}) {
    EXPECT_TRUE(cache.access(r)) << "object " << r.object;
  }
  EXPECT_EQ(cache.stats().expired_hits, 0u);
}

}  // namespace

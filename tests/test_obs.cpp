// lfo::obs test suite: metrics registry semantics, exporter golden
// formats (Prometheus text, JSONL, chrome://tracing JSON), and the
// model-health monitor wired through the windowed pipeline.
//
// The format tests use a small recursive-descent JSON parser (shared
// with the telemetry suites via obs_test_util.hpp) instead of string
// matching, so structural regressions (unbalanced events, broken
// escaping, duplicate series) fail loudly rather than fuzzily.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/windowed.hpp"
#include "obs/build_info.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"
#include "obs/trace_span.hpp"
#include "obs_test_util.hpp"
#include "trace/generator.hpp"

namespace {

using namespace lfo;
using testutil::JsonParser;
using testutil::JsonValue;
using testutil::golden_lfo_config;
using testutil::golden_trace;
using testutil::validate_prometheus_text;

// ---------------------------------------------------------- metrics core

TEST(MetricsRegistry, SameNameSameInstance) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& a = registry.counter("test_same_name_counter");
  auto& b = registry.counter("test_same_name_counter");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.inc();
  b.add(2);
  EXPECT_EQ(a.value(), 3u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndDuplicateFree) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("test_snap_b").inc();
  registry.counter("test_snap_a").inc();
  registry.gauge("test_snap_g").set(1.5);
  const auto snap = registry.snapshot();
  std::set<std::string> seen;
  std::string prev;
  for (const auto& c : snap.counters) {
    EXPECT_TRUE(seen.insert(c.name).second)
        << "duplicate counter " << c.name;
    EXPECT_LE(prev, c.name) << "counters not sorted";
    prev = c.name;
  }
}

TEST(Gauge, SetOverwritesAndResetZeroes) {
  obs::Gauge g;
  g.set(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(LatencyHistogram, BucketsAndQuantiles) {
  obs::LatencyHistogram h;
  // 1000 observations of 1us and 1000 of 1ms: the median must sit in the
  // 1us bucket region and p99 in the 1ms region.
  for (int i = 0; i < 1000; ++i) h.observe_ns(1000);
  for (int i = 0; i < 1000; ++i) h.observe_ns(1000000);
  EXPECT_EQ(h.count(), 2000u);
  EXPECT_NEAR(h.sum_seconds(), 1000 * 1e-6 + 1000 * 1e-3, 1e-9);
  EXPECT_LT(h.quantile(0.25), 5e-6);
  EXPECT_GT(h.quantile(0.99), 5e-4);
  EXPECT_LT(h.quantile(0.99), 5e-3);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  // Empty histogram signals "no data" (NaN) instead of a fake 0s latency.
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

// ------------------------------------------------------------- exporters

TEST(Exporters, PrometheusNameSanitizer) {
  EXPECT_EQ(obs::prometheus_name("lfo_window_bhr"), "lfo_window_bhr");
  EXPECT_EQ(obs::prometheus_name("has space-and.dots"),
            "has_space_and_dots");
  EXPECT_EQ(obs::prometheus_name("9starts_with_digit"),
            "_starts_with_digit");
  EXPECT_EQ(obs::prometheus_name(""), "_");
}

TEST(Exporters, PrometheusTextParsesWithoutDuplicateSeries) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("test_prom_counter").inc();
  registry.gauge("test_prom_gauge").set(0.25);
  auto& h = registry.histogram("test_prom_hist");
  h.observe_seconds(0.001);
  h.observe_seconds(0.1);

  std::ostringstream os;
  obs::write_prometheus_text(os,
                             obs::MetricsRegistry::instance().snapshot());
  const auto series = validate_prometheus_text(os.str());
  EXPECT_TRUE(series.contains("test_prom_counter"));
  EXPECT_TRUE(series.contains("test_prom_gauge"));
  EXPECT_TRUE(series.contains("test_prom_hist_count"));
  EXPECT_TRUE(series.contains("test_prom_hist_bucket{le=\"+Inf\"}"));
  // The exposition self-identifies the build that produced it.
  bool has_build_info = false;
  for (const auto& key : series) {
    has_build_info |= key.rfind("lfo_build_info{", 0) == 0;
  }
  EXPECT_TRUE(has_build_info);
}

TEST(Exporters, BuildInfoIsLabeledAndNonEmpty) {
  const auto& info = obs::build_info();
  EXPECT_FALSE(info.revision.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.build_type.empty());

  std::ostringstream os;
  obs::write_prometheus_text(os,
                             obs::MetricsRegistry::instance().snapshot());
  const std::string text = os.str();
  const std::string expected =
      "lfo_build_info{revision=\"" + info.revision + "\"";
  EXPECT_NE(text.find(expected), std::string::npos)
      << "lfo_build_info series missing or mislabeled";

  std::ostringstream js;
  obs::write_jsonl_snapshot(js, "build-info-test");
  const std::string line = js.str();
  const auto doc =
      testutil::JsonParser(line.substr(0, line.size() - 1)).parse();
  ASSERT_TRUE(doc.has_value());
  const auto* build = doc->find("build_info");
  ASSERT_NE(build, nullptr);
  const auto* revision = build->find("revision");
  ASSERT_NE(revision, nullptr);
  EXPECT_EQ(revision->text, info.revision);
}

TEST(Exporters, JsonlSnapshotIsValidSingleLineJson) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("test_jsonl_counter").add(7);
  registry.histogram("test_jsonl_hist").observe_seconds(0.002);

  std::ostringstream os;
  obs::write_jsonl_snapshot(os, "unit \"quoted\" label");
  const std::string text = os.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text.find('\n'), text.size() - 1) << "JSONL must be one line";

  const auto doc =
      JsonParser(text.substr(0, text.size() - 1)).parse();
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);
  const auto* label = doc->find("label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->text, "unit \"quoted\" label");
  const auto* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* counter = counters->find("test_jsonl_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number, 7.0);
  const auto* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const auto* hist = hists->find("test_jsonl_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_NE(hist->find("p50"), nullptr);
  EXPECT_NE(hist->find("count"), nullptr);
}

// ------------------------------------------------------------ chrome trace

TEST(ChromeTrace, AsyncRunEmitsBalancedEventsInLabeledLanes) {
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  auto config = golden_lfo_config();
  config.train_threads = 2;
  const auto trace = golden_trace("web");
  const auto result = core::run_windowed_lfo(trace, config);
  obs::set_tracing_enabled(false);
  ASSERT_FALSE(result.windows.empty());
  ASSERT_GT(obs::recorded_span_count(), 0u);
  // Tracing is the one instrumentation switch: the untraced run must
  // make the same decisions, window for window.
  const auto spans = obs::recorded_span_count();
  const auto untraced = core::run_windowed_lfo(trace, config);
  EXPECT_EQ(obs::recorded_span_count(), spans) << "tracing off recorded";
  EXPECT_TRUE(core::same_decisions(result, untraced))
      << "tracing changed caching decisions";

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const auto doc = JsonParser(os.str()).parse();
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  std::map<double, std::vector<std::string>> open_per_tid;  // B/E stack
  std::set<double> tids;
  std::set<std::string> names;
  std::set<double> labeled_tids;  // tids with a thread_name metadata event
  std::map<double, double> last_ts_per_tid;  // events sorted per lane
  for (const auto& ev : events->items) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    const auto* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->text == "M") {
      const auto* name = ev.find("name");
      ASSERT_NE(name, nullptr);
      EXPECT_EQ(name->text, "thread_name");
      const auto* tid = ev.find("tid");
      ASSERT_NE(tid, nullptr);
      labeled_tids.insert(tid->number);
      continue;
    }
    ASSERT_TRUE(ph->text == "B" || ph->text == "E")
        << "unexpected phase " << ph->text;
    const auto* tid = ev.find("tid");
    const auto* ts = ev.find("ts");
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->number, 0.0);
    // The writer serializes lane by lane; within each lane timestamps
    // must be monotone (the viewer sorts lanes itself).
    const auto [it, first] =
        last_ts_per_tid.try_emplace(tid->number, ts->number);
    if (!first) {
      EXPECT_GE(ts->number, it->second)
          << "events not sorted within tid " << tid->number;
      it->second = ts->number;
    }
    tids.insert(tid->number);
    auto& stack = open_per_tid[tid->number];
    if (ph->text == "B") {
      const auto* name = ev.find("name");
      ASSERT_NE(name, nullptr);
      names.insert(name->text);
      stack.push_back(name->text);
    } else {
      ASSERT_FALSE(stack.empty()) << "E without matching B";
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : open_per_tid) {
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  }
  // Serve lane + at least one training lane, all with name metadata.
  EXPECT_GE(tids.size(), 2u);
  for (const double tid : tids) {
    EXPECT_TRUE(labeled_tids.contains(tid))
        << "tid " << tid << " has no thread_name metadata";
  }
  // The instrumented pipeline stages all show up.
  for (const char* expected :
       {"serve_window", "train_window", "opt_solve", "dataset_build",
        "gbdt_train", "boost_round", "model_swap"}) {
    EXPECT_TRUE(names.contains(expected))
        << "span '" << expected << "' missing from trace";
  }
}

// ----------------------------------------------------------- model health

TEST(ModelHealth, SummarizeRowsComputesMeanAndStddev) {
  // Two features, three rows: feature 0 = {1,2,3}, feature 1 = {4,4,4}.
  const std::vector<float> matrix{1.0f, 4.0f, 2.0f, 4.0f, 3.0f, 4.0f};
  const auto summary = obs::summarize_rows(matrix, 2);
  ASSERT_EQ(summary.rows, 3u);
  ASSERT_EQ(summary.mean.size(), 2u);
  EXPECT_NEAR(summary.mean[0], 2.0, 1e-12);
  EXPECT_NEAR(summary.mean[1], 4.0, 1e-12);
  EXPECT_NEAR(summary.stddev[0], std::sqrt(2.0 / 3.0), 1e-12);
  EXPECT_NEAR(summary.stddev[1], 0.0, 1e-12);
}

TEST(ModelHealth, DriftZeroForIdenticalAndPositiveForShifted) {
  const std::vector<float> base{1.0f, 10.0f, 2.0f, 12.0f, 3.0f, 14.0f};
  const auto a = obs::summarize_rows(base, 2);
  const auto same = obs::feature_drift(a, a);
  EXPECT_DOUBLE_EQ(same.mean_score, 0.0);
  EXPECT_DOUBLE_EQ(same.max_score, 0.0);

  // Shift feature 1 far away; feature 0 unchanged.
  const std::vector<float> moved{1.0f, 100.0f, 2.0f, 120.0f, 3.0f, 140.0f};
  const auto b = obs::summarize_rows(moved, 2);
  const auto shifted = obs::feature_drift(a, b);
  EXPECT_GT(shifted.mean_score, 0.0);
  EXPECT_GT(shifted.max_score, shifted.mean_score);
  EXPECT_EQ(shifted.worst_feature, 1u);
}

/// Windowed pipeline on the golden flash-crowd trace: health fields are
/// filled, and the drift monitor flags the distribution shift there but
/// stays quiet on the stationary web trace at the default threshold.
TEST(ModelHealth, DriftWarningFiresOnFlashCrowdNotOnWeb) {
  const auto run = [](const std::string& scenario) {
    auto config = golden_lfo_config();
    return core::run_windowed_lfo(golden_trace(scenario), config);
  };
  const auto web = run("web");
  const auto flash = run("flash-crowd");

  bool web_warned = false;
  for (const auto& w : web.windows) web_warned |= w.health.drift_warning;
  bool flash_warned = false;
  for (const auto& w : flash.windows) {
    flash_warned |= w.health.drift_warning;
  }
  EXPECT_FALSE(web_warned)
      << "stationary web trace should stay under the drift threshold";
  EXPECT_TRUE(flash_warned)
      << "flash-crowd trace should cross the drift threshold";

  // Field sanity on every window that has a serving model + training.
  for (const auto& w : flash.windows) {
    if (w.health.decision_accuracy >= 0.0) {
      EXPECT_LE(w.health.decision_accuracy, 1.0);
      EXPECT_GE(w.health.false_positive_share, 0.0);
      EXPECT_GE(w.health.false_negative_share, 0.0);
      EXPECT_NEAR(w.health.false_positive_share +
                      w.health.false_negative_share,
                  1.0 - w.health.decision_accuracy, 1e-12);
    }
    if (w.health.admission_rate >= 0.0) {
      EXPECT_LE(w.health.admission_rate, 1.0);
    }
    if (w.health.feature_drift >= 0.0) {
      EXPECT_GE(w.health.max_feature_drift, w.health.feature_drift);
    }
  }
  // Drift is measured from the second swap onwards; it must actually be
  // measured somewhere.
  bool any_drift_measured = false;
  for (const auto& w : flash.windows) {
    any_drift_measured |= w.health.feature_drift >= 0.0;
  }
  EXPECT_TRUE(any_drift_measured);
}

// Every window trains, and its report carries that training once the
// run returns: the trailing windows whose models never activate are
// drained, not dropped, at every thread count and lag.
TEST(ModelHealth, EveryWindowReportsItsTrainingInBothModes) {
  const auto trace = golden_trace("web");
  for (const std::size_t threads : {0u, 2u}) {
    for (const std::uint32_t lag : {0u, 2u}) {
      auto config = golden_lfo_config();
      config.train_threads = threads;
      config.swap_lag = lag;
      const auto result = core::run_windowed_lfo(trace, config);
      ASSERT_EQ(result.windows.size(), 4u)
          << "train_threads=" << threads << " swap_lag=" << lag;
      for (std::size_t i = 0; i < result.windows.size(); ++i) {
        const auto& report = result.windows[i];
        EXPECT_EQ(report.index, i);
        EXPECT_GT(report.train_seconds, 0.0)
            << "window " << i << " train_threads=" << threads
            << " swap_lag=" << lag;
        EXPECT_GT(report.rollout.train_attempts, 0u)
            << "window " << i << " train_threads=" << threads
            << " swap_lag=" << lag;
      }
    }
  }
}

TEST(ModelHealth, HealthIsDeterministicAcrossSchedules) {
  const auto trace = golden_trace("flash-crowd");
  auto config = golden_lfo_config();
  const auto sync_result = core::run_windowed_lfo(trace, config);
  config.train_threads = 3;
  const auto async_result = core::run_windowed_lfo(trace, config);
  EXPECT_TRUE(core::same_decisions(sync_result, async_result));
}

// Calibration helper, a no-op unless LFO_PRINT_DRIFT is set: prints the
// per-window drift scores of both scenarios so the default
// drift_warn_threshold can be re-derived after feature changes.
TEST(ModelHealth, PrintDriftCalibration) {
  if (std::getenv("LFO_PRINT_DRIFT") == nullptr) GTEST_SKIP();
  for (const std::string scenario : {"web", "flash-crowd"}) {
    auto config = golden_lfo_config();
    config.drift_warn_threshold = 0.0;  // silence warnings while probing
    const auto result =
        core::run_windowed_lfo(golden_trace(scenario), config);
    std::cout << "# " << scenario << '\n';
    for (const auto& w : result.windows) {
      std::cout << "window " << w.index << " drift=" << w.health.feature_drift
                << " max=" << w.health.max_feature_drift
                << " worst_feature=" << w.health.drift_worst_feature
                << " accuracy=" << w.health.decision_accuracy
                << " admission=" << w.health.admission_rate
                << " bhr_delta=" << w.health.bhr_delta << '\n';
    }
  }
}

}  // namespace

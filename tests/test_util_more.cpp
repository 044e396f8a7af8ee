// Second util batch: coverage for corner cases of the statistics,
// logging, and RNG helpers that the first batch left out.

#include <gtest/gtest.h>

#include <cmath>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lfo::util {
namespace {

TEST(RunningStatsMore, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());
  b.merge(a);  // merging into empty copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStatsMore, ResetClearsEverything) {
  RunningStats s;
  s.add(5.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStatsMore, SingleSampleVarianceIsZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(BinaryConfusionMore, DegenerateAllPositive) {
  BinaryConfusion c;
  c.add(true, true);
  c.add(true, true);
  EXPECT_DOUBLE_EQ(c.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(c.false_positive_rate(), 0.0);  // no negatives: 0
  EXPECT_DOUBLE_EQ(c.precision(), 1.0);
  EXPECT_DOUBLE_EQ(c.recall(), 1.0);
}

TEST(BinaryConfusionMore, EmptyIsZeroNotNan) {
  BinaryConfusion c;
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(c.precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.recall(), 0.0);
  EXPECT_FALSE(std::isnan(c.false_positive_share()));
}

TEST(RngMore, UniformBoundOne) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(RngMore, ReseedReproduces) {
  Rng rng(9);
  const auto a = rng.next();
  rng.next();
  rng.reseed(9);
  EXPECT_EQ(rng.next(), a);
}

TEST(RngMore, LognormalIsPositive) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 2.0), 0.0);
  }
}

TEST(RngMore, DifferentSaltsViaSplitmix) {
  std::uint64_t s1 = 1, s2 = 2;
  EXPECT_NE(splitmix64(s1), splitmix64(s2));
}

TEST(LoggingMore, LevelFilterApplies) {
  const auto before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // These must not crash (output goes to stderr; level drops two of them).
  log_debug("dropped");
  log_info("dropped");
  log_error("kept: this line is expected in test output");
  set_log_level(before);
}

TEST(LoggingMore, TraceIsBelowEveryOtherLevel) {
  EXPECT_LT(LogLevel::kTrace, LogLevel::kDebug);
  EXPECT_LT(LogLevel::kDebug, LogLevel::kInfo);
  EXPECT_LT(LogLevel::kInfo, LogLevel::kWarn);
  EXPECT_LT(LogLevel::kWarn, LogLevel::kError);
  const auto before = log_level();
  set_log_level(LogLevel::kError);
  log_trace("dropped at error level");  // must not crash
  set_log_level(before);
}

TEST(LoggingMore, ParseLogLevelNamesAndNumbers) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("TRACE"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("Debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("0"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("4"), LogLevel::kError);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level("5"), std::nullopt);
}

}  // namespace
}  // namespace lfo::util

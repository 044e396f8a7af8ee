#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace lfo::util {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const auto d = rng.uniform01();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(3);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(4);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, ParetoSupport) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(3.0, 2.0), 3.0);
  }
}

TEST(RunningStats, MatchesNaiveComputation) {
  RunningStats stats;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0;
  for (const auto x : xs) {
    stats.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0;
  for (const auto x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
  EXPECT_DOUBLE_EQ(stats.sum(), sum);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, a, b;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(BinaryConfusion, RatesAndShares) {
  BinaryConfusion c;
  c.add(true, true);    // tp
  c.add(true, false);   // fp
  c.add(false, true);   // fn
  c.add(false, false);  // tn
  EXPECT_EQ(c.total(), 4u);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(c.false_positive_share(), 0.25);
  EXPECT_DOUBLE_EQ(c.false_negative_share(), 0.25);
  EXPECT_DOUBLE_EQ(c.false_positive_rate(), 0.5);
  EXPECT_DOUBLE_EQ(c.false_negative_rate(), 0.5);
  EXPECT_DOUBLE_EQ(c.precision(), 0.5);
  EXPECT_DOUBLE_EQ(c.recall(), 0.5);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimWhitespace) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(Strings, StrictParsing) {
  EXPECT_EQ(parse_int("-42").value(), -42);
  EXPECT_EQ(parse_uint("42").value(), 42u);
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_FALSE(parse_int("42x").has_value());
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(Strings, Formatting) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(1ULL << 20), "1.00 MiB");
  EXPECT_EQ(format_bytes(3ULL << 30), "3.00 GiB");
}

TEST(Csv, WriterEscapes) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field("plain").field("with,comma").field("with\"quote").end_row();
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Csv, RoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field("a,b").field("c\"d").field(42).end_row();
  auto line = os.str();
  line.pop_back();  // trailing newline
  const auto fields = parse_csv_line(line);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "c\"d");
  EXPECT_EQ(fields[2], "42");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

}  // namespace
}  // namespace lfo::util

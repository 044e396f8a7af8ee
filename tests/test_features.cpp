#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "features/dataset_builder.hpp"
#include "features/features.hpp"
#include "opt/opt.hpp"
#include "trace/generator.hpp"

namespace lfo::features {
namespace {

using trace::Request;

TEST(FeatureConfig, DimensionAndNames) {
  FeatureConfig config;
  config.num_gaps = 50;
  EXPECT_EQ(config.dimension(), 53u);  // size + cost + free + 50 gaps
  const auto names = config.names();
  ASSERT_EQ(names.size(), 53u);
  EXPECT_EQ(names[0], "size");
  EXPECT_EQ(names[1], "cost");
  EXPECT_EQ(names[2], "free");
  EXPECT_EQ(names[3], "gap1");
  EXPECT_EQ(names[52], "gap50");
}

TEST(FeatureConfig, ThinnedGapsArePowersOfTwo) {
  FeatureConfig config;
  config.num_gaps = 50;
  config.thin_gaps = true;
  const auto gaps = config.gap_indices();
  const std::vector<std::uint32_t> expect{1, 2, 4, 8, 16, 32};
  EXPECT_EQ(gaps, expect);
  EXPECT_EQ(config.dimension(), 3u + 6u);
}

TEST(FeatureConfig, TogglesAffectDimension) {
  FeatureConfig config;
  config.num_gaps = 10;
  config.include_cost = false;
  config.include_free_bytes = false;
  EXPECT_EQ(config.dimension(), 11u);
  EXPECT_EQ(config.names()[0], "size");
  EXPECT_EQ(config.names()[1], "gap1");
}

TEST(HistoryTable, GapSemantics) {
  HistoryTable h(4);
  h.record(7, 10);
  h.record(7, 13);
  h.record(7, 20);
  std::vector<float> gaps(4);
  h.gaps(7, 26, gaps, -1.0f);
  // gap1 = 26-20, gap2 = 20-13, gap3 = 13-10, gap4 missing.
  EXPECT_FLOAT_EQ(gaps[0], 6.0f);
  EXPECT_FLOAT_EQ(gaps[1], 7.0f);
  EXPECT_FLOAT_EQ(gaps[2], 3.0f);
  EXPECT_FLOAT_EQ(gaps[3], -1.0f);
}

TEST(HistoryTable, ShiftInvarianceOfOlderGaps) {
  // The same request pattern shifted in time yields identical gap2+,
  // and gap1 differs only via "now" — the paper's robustness argument.
  HistoryTable a(4), b(4);
  for (const auto t : {100, 108, 116}) a.record(1, t);
  for (const auto t : {500, 508, 516}) b.record(1, t);
  std::vector<float> ga(4), gb(4);
  a.gaps(1, 120, ga, -1.0f);
  b.gaps(1, 520, gb, -1.0f);
  EXPECT_EQ(ga, gb);
}

TEST(HistoryTable, RingBufferKeepsNewest) {
  HistoryTable h(2);
  h.record(3, 1);
  h.record(3, 5);
  h.record(3, 11);  // evicts t=1
  EXPECT_EQ(h.depth(3), 2u);
  std::vector<float> gaps(2);
  h.gaps(3, 20, gaps, -1.0f);
  EXPECT_FLOAT_EQ(gaps[0], 9.0f);   // 20 - 11
  EXPECT_FLOAT_EQ(gaps[1], 6.0f);   // 11 - 5
}

TEST(HistoryTable, UnknownObjectAllMissing) {
  HistoryTable h(3);
  std::vector<float> gaps(3);
  h.gaps(42, 100, gaps, 9.0f);
  for (const auto g : gaps) EXPECT_FLOAT_EQ(g, 9.0f);
  EXPECT_EQ(h.depth(42), 0u);
}

TEST(HistoryTable, ClearAndAccounting) {
  HistoryTable h(50);
  h.record(1, 1);
  h.record(2, 2);
  EXPECT_EQ(h.tracked_objects(), 2u);
  // The paper quotes ~208 bytes/object for the naive representation; ours
  // should be the same order of magnitude.
  EXPECT_GE(h.bytes_per_object(), 50u * 8u);
  EXPECT_LE(h.bytes_per_object(), 1024u);
  h.clear();
  EXPECT_EQ(h.tracked_objects(), 0u);
}

// Regression: record(2^64-1) used to resize the dense table to
// object + 1 == 0 and then write out of bounds.
TEST(HistoryTable, MaxObjectIdThrowsAndKeepsHistories) {
  HistoryTable h(4);
  h.record(7, 10);
  h.record(7, 13);
  EXPECT_THROW(h.record(std::numeric_limits<trace::ObjectId>::max(), 20),
               std::length_error);
  EXPECT_EQ(h.tracked_objects(), 1u);
  EXPECT_EQ(h.depth(7), 2u);
  std::vector<float> gaps(4);
  h.gaps(7, 26, gaps, -1.0f);
  EXPECT_FLOAT_EQ(gaps[0], 13.0f);  // 26 - 13
  EXPECT_FLOAT_EQ(gaps[1], 3.0f);   // 13 - 10
  h.record(7, 30);  // the table keeps working after the refusal
  EXPECT_EQ(h.depth(7), 3u);
}

TEST(FeatureExtractor, ExtractLaysOutFeatures) {
  FeatureConfig config;
  config.num_gaps = 3;
  config.missing_gap_value = -1.0f;
  FeatureExtractor ex(config);
  Request r{5, 1000, 1000.0};
  std::vector<float> row(ex.dimension());
  FeatureScratch scratch;
  ex.extract(r, 10, 5000, row, scratch);
  EXPECT_FLOAT_EQ(row[0], 1000.0f);   // size
  EXPECT_FLOAT_EQ(row[1], 1000.0f);   // cost
  EXPECT_FLOAT_EQ(row[2], 5000.0f);   // free bytes
  EXPECT_FLOAT_EQ(row[3], -1.0f);     // no history yet
  ex.observe(r, 10);
  ex.extract(r, 25, 4000, row, scratch);
  EXPECT_FLOAT_EQ(row[3], 15.0f);  // gap1
  EXPECT_FLOAT_EQ(row[4], -1.0f);
}

TEST(FeatureExtractor, RejectsWrongOutputSize) {
  FeatureExtractor ex{FeatureConfig{}};
  Request r{1, 10, 10.0};
  std::vector<float> row(3);
  FeatureScratch scratch;
  EXPECT_THROW(ex.extract(r, 0, 0, row, scratch), std::invalid_argument);
}

TEST(DatasetBuilder, LabelsMatchOptDecisions) {
  const auto t = trace::generate_zipf_trace(2000, 100, 0.9, 21);
  std::span<const Request> reqs(t.requests());
  opt::OptConfig oc;
  oc.cache_size = t.unique_bytes() / 4;
  oc.mode = opt::OptMode::kGreedyPacking;
  const auto decisions = opt::compute_opt(reqs, oc);

  DatasetBuildOptions options;
  options.cache_size = oc.cache_size;
  const auto data = build_dataset(reqs, decisions, options);
  ASSERT_EQ(data.num_rows(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(data.label(i) > 0.5f, decisions.cached[i] != 0) << i;
  }
}

TEST(DatasetBuilder, FreeBytesTracksOptOccupancy) {
  // Two requests to one object with a cached decision: during the decided
  // interval, free bytes shrink by the object size.
  std::vector<Request> reqs{{0, 100, 100.0},
                            {1, 50, 50.0},
                            {0, 100, 100.0}};
  opt::OptDecisions d;
  d.cached = {1, 0, 0};
  d.cache_fraction = {1.0f, 0.0f, 0.0f};
  DatasetBuildOptions options;
  options.cache_size = 1000;
  const auto data = build_dataset(reqs, d, options);
  const auto free_col = 2;  // size, cost, free
  // Pre-admission at request 0, the cache is empty.
  EXPECT_FLOAT_EQ(data.feature(0, free_col), 1000.0f);
  // During the decided interval the object occupies 100 bytes.
  EXPECT_FLOAT_EQ(data.feature(1, free_col), 900.0f);
  // At its next request the object is still resident (it is a hit).
  EXPECT_FLOAT_EQ(data.feature(2, free_col), 900.0f);
}

TEST(DatasetBuilder, WarmupSkipsSamplesButKeepsHistory) {
  std::vector<Request> reqs{
      {0, 10, 10.0}, {0, 10, 10.0}, {0, 10, 10.0}, {0, 10, 10.0}};
  opt::OptDecisions d;
  d.cached = {1, 1, 1, 0};
  d.cache_fraction = {1, 1, 1, 0};
  DatasetBuildOptions options;
  options.warmup = 2;
  options.features.num_gaps = 2;
  options.features.missing_gap_value = -1.0f;
  const auto data = build_dataset(reqs, d, options);
  ASSERT_EQ(data.num_rows(), 2u);
  // First emitted sample is request index 2 and must see 2 recorded gaps.
  const auto gap1 = data.feature(0, 3);
  const auto gap2 = data.feature(0, 4);
  EXPECT_FLOAT_EQ(gap1, 1.0f);
  EXPECT_FLOAT_EQ(gap2, 1.0f);
}

TEST(DatasetBuilder, RejectsMismatchedDecisions) {
  std::vector<Request> reqs{{0, 1, 1.0}};
  opt::OptDecisions d;  // empty
  EXPECT_THROW(build_dataset(reqs, d, {}), std::invalid_argument);
}

}  // namespace
}  // namespace lfo::features

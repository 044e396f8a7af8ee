#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "features/dataset_builder.hpp"
#include "features/features.hpp"
#include "opt/opt.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace lfo::features {
namespace {

using trace::Request;

TEST(FeatureConfig, DimensionAndNames) {
  FeatureConfig config;
  config.num_gaps = 50;
  config.thin_gaps = false;            // the paper's dense schema
  EXPECT_EQ(config.dimension(), 53u);  // size + cost + free + 50 gaps
  const auto names = config.names();
  ASSERT_EQ(names.size(), 53u);
  EXPECT_EQ(names[0], "size");
  EXPECT_EQ(names[1], "cost");
  EXPECT_EQ(names[2], "free");
  EXPECT_EQ(names[3], "gap1");
  EXPECT_EQ(names[52], "gap50");
}

// The default schema: every gap to 8, then two per octave (2^k, 3*2^k).
TEST(FeatureConfig, ThinGapsAreLogSpaced) {
  const FeatureConfig config;
  EXPECT_TRUE(config.thin_gaps);
  const std::vector<std::uint32_t> expect{1, 2, 3, 4, 5, 6, 7, 8,
                                          12, 16, 24, 32};
  EXPECT_EQ(config.gap_indices(), expect);
  EXPECT_EQ(config.dimension(), 15u);
  EXPECT_EQ(config.names().back(), "gap32");

  FeatureConfig wide;  // lfo_bench's schema
  wide.num_gaps = 50;
  auto with_48 = expect;
  with_48.push_back(48);
  EXPECT_EQ(wide.gap_indices(), with_48);
  EXPECT_EQ(wide.dimension(), 16u);
}

// Both schemas start at gap 1, strictly increase and stay within
// num_gaps without wrapping; a dense list has num_gaps entries, so it is
// exactly 1..num_gaps.
TEST(FeatureConfig, GapListsIncreaseWithinNumGaps) {
  for (const bool thin : {true, false}) {
    for (const std::uint32_t num_gaps : {1u, 8u, 9u, 12u, 65535u}) {
      SCOPED_TRACE(std::string(thin ? "thin " : "dense ") +
                   std::to_string(num_gaps));
      FeatureConfig config;
      config.thin_gaps = thin;
      config.num_gaps = num_gaps;
      const auto gaps = config.gap_indices();
      ASSERT_FALSE(gaps.empty());
      EXPECT_EQ(gaps.front(), 1u);
      EXPECT_LE(gaps.back(), num_gaps);
      for (std::size_t k = 1; k < gaps.size(); ++k) {
        ASSERT_LT(gaps[k - 1], gaps[k]);
      }
      if (!thin) {
        EXPECT_EQ(gaps.size(), num_gaps);
      }
    }
  }
  FeatureConfig nine;
  nine.num_gaps = 9;  // 9 is neither <= 8 nor 2^k nor 3*2^k
  EXPECT_EQ(nine.gap_indices().back(), 8u);
  FeatureConfig widest;
  widest.num_gaps = 65535;  // 2^16 would pass it; 3*2^14 is the last
  EXPECT_EQ(widest.gap_indices().back(), 49152u);
  EXPECT_EQ(widest.gap_indices().size(), 8u + 2u * 12u + 1u);
}

TEST(FeatureConfig, TogglesAffectDimension) {
  FeatureConfig config;
  config.num_gaps = 10;
  config.thin_gaps = false;
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
  EXPECT_EQ(h.bytes_per_object(), 0u);
  h.record(1, 1);
  h.record(2, 2);
  EXPECT_EQ(h.tracked_objects(), 2u);
  // The paper quotes ~208 bytes/object for the naive representation; ours
  // should be the same order of magnitude.
  EXPECT_EQ(h.bytes_per_object(), h.bytes() / 2);
  EXPECT_LE(h.bytes_per_object(), 1024u);
  h.clear();
  EXPECT_EQ(h.tracked_objects(), 0u);
  EXPECT_EQ(h.bytes_per_object(), 0u);
}

// Every 64-bit id is an ordinary key: 0 and 2^64-1 included (the dense
// table once wrapped resize(2^64) to 0), and 2^40 costs one slot, not a
// 2^40-entry table.
TEST(HistoryTable, ExtremeIdsKeepIndependentGaps) {
  constexpr auto kMax = std::numeric_limits<trace::ObjectId>::max();
  constexpr trace::ObjectId kIds[] = {0, trace::ObjectId{1} << 40, kMax};
  HistoryTable h(4);
  std::uint64_t t = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 3; ++i) h.record(kIds[i], t += i + 1);
  }
  h.record(kMax, t += 10);
  EXPECT_EQ(h.tracked_objects(), 3u);
  EXPECT_EQ(h.depth(0), 3u);
  EXPECT_EQ(h.depth(kIds[1]), 3u);
  EXPECT_EQ(h.depth(kMax), 4u);
  EXPECT_EQ(h.depth(kMax - 1), 0u);
  // Times: 0 -> 1, 7, 13; 2^40 -> 3, 9, 15; 2^64-1 -> 6, 12, 18, 28.
  std::vector<float> gaps(4);
  h.gaps(0, 30, gaps, -1.0f);
  EXPECT_EQ(gaps, (std::vector<float>{17, 6, 6, -1}));
  h.gaps(kIds[1], 30, gaps, -1.0f);
  EXPECT_EQ(gaps, (std::vector<float>{15, 6, 6, -1}));
  h.gaps(kMax, 30, gaps, -1.0f);
  EXPECT_EQ(gaps, (std::vector<float>{2, 10, 6, 6}));
  EXPECT_LE(h.bytes(), 1024u);
}

/// Inverse of util::mix64, so a test can pick ids whose hash it knows.
std::uint64_t unmix64(std::uint64_t x) {
  auto inverse = [](std::uint64_t m) {  // m * inverse(m) == 1 mod 2^64
    std::uint64_t inv = m;
    for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
    return inv;
  };
  auto unshift = [](std::uint64_t y, int s) {  // inverts y ^= y >> s
    for (int done = s; done < 64; done += s) y ^= y >> done;
    return y;
  };
  x = unshift(x, 31);
  x *= inverse(0x94d049bb133111ebULL);
  x = unshift(x, 27);
  x *= inverse(0xbf58476d1ce4e5b9ULL);
  x = unshift(x, 30);
  return x - 0x9e3779b97f4a7c15ULL;
}

// Property test: the compact store against a map-of-deques model, on a
// seeded sequence that mixes a hot set (rings wrap at num_gaps), a cold
// tail (one-hit and shallow objects), dense ids, ids 0 and 2^64-1, and
// ids that all hash to one home slot at every table size up to 2^16
// (one probe chain hundreds long, carried through every rehash). After
// every record, depth() and gaps() of that id and of one other id must
// equal the model's; a clear() must forget everything and the table must
// then serve a second sequence the same way.
TEST(HistoryTable, MatchesReferenceModel) {
  constexpr std::uint64_t kSeed = 0x5eedf00dULL;
  for (const std::uint32_t num_gaps : {1u, 2u, 5u, 16u, 50u}) {
    SCOPED_TRACE("num_gaps " + std::to_string(num_gaps));
    std::vector<trace::ObjectId> ids;
    for (std::uint64_t k = 0; k < 400; ++k) {  // one home slot
      ids.push_back(unmix64(k << 16) ^ kSeed);
      ASSERT_EQ(util::mix64(ids.back() ^ kSeed), k << 16);
    }
    for (std::uint64_t k = 0; k < 3000; ++k) ids.push_back(k + 1);
    ids.push_back(0);
    ids.push_back(std::numeric_limits<trace::ObjectId>::max());
    util::Rng rng(num_gaps);
    for (int k = 0; k < 600; ++k) ids.push_back(rng.next());

    HistoryTable h(num_gaps, kSeed);
    HistoryTable other_seed(num_gaps);
    std::vector<float> got(num_gaps), want(num_gaps), other(num_gaps);
    std::uint64_t now = 0;
    for (int phase = 0; phase < 2; ++phase) {
      std::map<trace::ObjectId, std::deque<std::uint64_t>> model;
      auto check = [&](trace::ObjectId id) {
        const auto it = model.find(id);
        const std::size_t depth = it == model.end() ? 0 : it->second.size();
        ASSERT_EQ(h.depth(id), depth) << "id " << id;
        std::fill(want.begin(), want.end(), -1.0f);
        std::uint64_t later = now + 1;
        for (std::size_t k = 0; k < depth; ++k) {
          const std::uint64_t t = it->second[depth - 1 - k];
          want[k] = static_cast<float>(later - t);
          later = t;
        }
        h.gaps(id, now + 1, got, -1.0f);
        ASSERT_EQ(got, want) << "id " << id;
        other_seed.gaps(id, now + 1, other, -1.0f);
        ASSERT_EQ(other, want) << "id " << id << " under another seed";
      };
      for (int i = 0; i < 12000; ++i) {
        // 30% hot (ids[0..20): colliding ids), 70% uniform.
        const trace::ObjectId id = rng.bernoulli(0.3)
                                       ? ids[rng.uniform(20)]
                                       : ids[rng.uniform(ids.size())];
        now += 1 + rng.uniform(5);
        h.record(id, now);
        other_seed.record(id, now);
        auto& times = model[id];
        times.push_back(now);
        if (times.size() > num_gaps) times.pop_front();
        check(id);
        check(ids[rng.uniform(ids.size())]);
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(h.tracked_objects(), model.size());
      std::size_t full = 0;
      for (const auto& [id, times] : model) {
        full += times.size() == num_gaps ? 1 : 0;
      }
      EXPECT_GE(full, 20u) << "the hot set never reached full depth";
      EXPECT_GT(model.size(), 2000u) << "too few rehashes";
      h.clear();
      other_seed.clear();
      EXPECT_EQ(h.tracked_objects(), 0u);
      for (const trace::ObjectId id : {ids[0], ids[500], ids.back()}) {
        EXPECT_EQ(h.depth(id), 0u);
      }
    }
  }
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

// The extractor keeps only as much history as its largest emitted gap
// (48 of 50 here) and emits, bit for bit, the rows a full-depth history
// would give, seeded trace and all.
TEST(FeatureExtractor, DepthSizedHistoryMatchesFullDepth) {
  FeatureConfig config;
  config.num_gaps = 50;
  const auto indices = config.gap_indices();
  ASSERT_EQ(indices.back(), 48u);
  FeatureExtractor ex(config);
  HistoryTable full(config.num_gaps);
  const auto t = trace::generate_zipf_trace(30000, 400, 1.0, 5);
  std::vector<float> row(ex.dimension()), want(ex.dimension());
  std::vector<float> all(config.num_gaps);
  FeatureScratch scratch;
  std::uint64_t time = 0;
  std::uint32_t deepest = 0;
  for (const Request& r : t.requests()) {
    const std::uint64_t free_bytes = time * 7919 % 100000;
    ex.extract(r, time, free_bytes, row, scratch);
    full.gaps(r.object, time, all, config.missing_gap_value);
    want[0] = static_cast<float>(r.size);
    want[1] = static_cast<float>(r.cost);
    want[2] = static_cast<float>(free_bytes);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      want[config.gap_offset() + k] = all[indices[k] - 1];
    }
    ASSERT_EQ(std::memcmp(row.data(), want.data(), row.size() * sizeof(float)),
              0)
        << "request " << time;
    ex.observe(r, time);
    full.record(r.object, time);
    deepest = std::max(deepest, ex.history().depth(r.object));
    ++time;
  }
  EXPECT_EQ(deepest, 48u);
  EXPECT_EQ(scratch.gaps.size(), 48u);
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

TEST(DatasetBuilder, RejectsMismatchedDecisions) {
  std::vector<Request> reqs{{0, 1, 1.0}};
  opt::OptDecisions d;  // empty
  EXPECT_THROW(build_dataset(reqs, d, {}), std::invalid_argument);
}

}  // namespace
}  // namespace lfo::features

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>

#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stats.hpp"
#include "trace/zipf.hpp"
#include "util/rng.hpp"

namespace lfo::trace {
namespace {

TEST(Trace, BasicAccounting) {
  Trace t;
  t.push_back({0, 10, 10.0});
  t.push_back({1, 5, 5.0});
  t.push_back({0, 10, 10.0});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.num_objects(), 2u);
  EXPECT_EQ(t.total_bytes(), 25u);
  EXPECT_EQ(t.unique_bytes(), 15u);
}

TEST(Trace, WindowClampsAndSlices) {
  Trace t;
  for (ObjectId o = 0; o < 10; ++o) t.push_back({o, 1, 1.0});
  EXPECT_EQ(t.window(8, 5).size(), 2u);
  EXPECT_EQ(t.window(20, 5).size(), 0u);
  const auto s = t.slice(2, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].object, 2u);
}

TEST(Trace, CostModels) {
  Trace t;
  t.push_back({0, 100, 0.0});
  t.apply_cost_model(CostModel::kByteHitRatio);
  EXPECT_DOUBLE_EQ(t[0].cost, 100.0);
  t.apply_cost_model(CostModel::kObjectHitRatio);
  EXPECT_DOUBLE_EQ(t[0].cost, 1.0);
}

TEST(NextPrevIndices, CorrectLinks) {
  std::vector<Request> reqs{{0, 1, 1}, {1, 1, 1}, {0, 1, 1}, {0, 1, 1}};
  const auto next = next_request_indices(reqs);
  const auto prev = prev_request_indices(reqs);
  EXPECT_EQ(next[0], 2u);
  EXPECT_EQ(next[1], kNoNextRequest);
  EXPECT_EQ(next[2], 3u);
  EXPECT_EQ(next[3], kNoNextRequest);
  EXPECT_EQ(prev[0], kNoNextRequest);
  EXPECT_EQ(prev[2], 0u);
  EXPECT_EQ(prev[3], 2u);
}

TEST(Densify, RemapsToDenseStableIds) {
  std::vector<Request> reqs{{100, 1, 1}, {7, 1, 1}, {100, 1, 1}};
  const auto n = densify_object_ids(reqs);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(reqs[0].object, 0u);
  EXPECT_EQ(reqs[1].object, 1u);
  EXPECT_EQ(reqs[2].object, 0u);
}

TEST(Validate, DetectsInconsistentSizes) {
  std::vector<Request> good{{0, 5, 1}, {0, 5, 1}};
  std::vector<Request> bad{{0, 5, 1}, {0, 6, 1}};
  EXPECT_TRUE(validate_consistent_sizes(good));
  std::size_t idx = 0;
  EXPECT_FALSE(validate_consistent_sizes(bad, &idx));
  EXPECT_EQ(idx, 1u);
}

TEST(Zipf, PmfSumsToOneAndIsMonotone) {
  ZipfSampler z(100, 0.9);
  double sum = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    sum += z.pmf(k);
    if (k > 0) {
      EXPECT_LE(z.pmf(k), z.pmf(k - 1) + 1e-15);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, EmpiricalSkewMatchesPmf) {
  ZipfSampler z(50, 1.0);
  util::Rng rng(9);
  std::vector<std::uint64_t> counts(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, z.pmf(0), 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, z.pmf(1), 0.01);
  EXPECT_GT(counts[0], counts[10]);
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(z.pmf(k), 0.1, 1e-12);
  }
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

TEST(Generator, DeterministicPerSeed) {
  const auto a = generate_zipf_trace(1000, 100, 0.9, 42);
  const auto b = generate_zipf_trace(1000, 100, 0.9, 42);
  const auto c = generate_zipf_trace(1000, 100, 0.9, 43);
  EXPECT_EQ(a.requests(), b.requests());
  EXPECT_NE(a.requests(), c.requests());
}

TEST(Generator, SizesConsistentPerObject) {
  GeneratorConfig config;
  config.num_requests = 5000;
  config.seed = 1;
  config.classes = production_mix(0.02);
  const auto t = generate_trace(config);
  EXPECT_TRUE(validate_consistent_sizes(t.requests()));
}

TEST(Generator, CostModelApplied) {
  const auto bhr =
      generate_zipf_trace(100, 10, 0.9, 1, CostModel::kByteHitRatio);
  for (const auto& r : bhr.requests()) {
    EXPECT_DOUBLE_EQ(r.cost, static_cast<double>(r.size));
  }
  const auto ohr =
      generate_zipf_trace(100, 10, 0.9, 1, CostModel::kObjectHitRatio);
  for (const auto& r : ohr.requests()) EXPECT_DOUBLE_EQ(r.cost, 1.0);
}

TEST(Generator, ClassSizeRangesRespected) {
  GeneratorConfig config;
  config.num_requests = 3000;
  config.classes = {video_class(50)};
  const auto t = generate_trace(config);
  const auto cc = video_class(50);
  for (const auto& r : t.requests()) {
    EXPECT_GE(r.size, cc.min_size);
    EXPECT_LE(r.size, cc.max_size);
  }
}

TEST(Generator, DriftChangesPopularity) {
  GeneratorConfig config;
  config.num_requests = 20000;
  config.seed = 5;
  ContentClass cc;
  cc.num_objects = 500;
  cc.zipf_alpha = 1.2;
  config.classes = {cc};
  config.drift.reshuffle_interval = 5000;
  config.drift.reshuffle_fraction = 1.0;
  const auto t = generate_trace(config);
  // Top object of the first quarter should lose dominance later.
  auto top_of = [&](std::size_t begin, std::size_t len) {
    std::unordered_map<ObjectId, int> counts;
    for (const auto& r : t.window(begin, len)) ++counts[r.object];
    ObjectId best = 0;
    int best_count = -1;
    for (const auto& [o, c] : counts) {
      if (c > best_count) {
        best = o;
        best_count = c;
      }
    }
    return best;
  };
  EXPECT_NE(top_of(0, 5000), top_of(15000, 5000));
}

TEST(Generator, FlashCrowdSpikesOneObject) {
  GeneratorConfig config;
  config.num_requests = 30000;
  config.seed = 8;
  ContentClass cc;
  cc.num_objects = 10000;
  cc.zipf_alpha = 0.3;  // flat popularity so the spike stands out
  config.classes = {cc};
  config.drift.reshuffle_interval = 5000;
  config.drift.reshuffle_fraction = 0.0;
  config.drift.flash_crowd_probability = 1.0;
  config.drift.flash_crowd_share = 0.5;
  config.drift.flash_crowd_duration = 5000;
  const auto t = generate_trace(config);
  std::unordered_map<ObjectId, int> counts;
  for (const auto& r : t.requests()) ++counts[r.object];
  int max_count = 0;
  for (const auto& [o, c] : counts) max_count = std::max(max_count, c);
  // Without the crowd, a flat Zipf over 10K objects would give each object
  // a handful of requests. The spiked object gets thousands.
  EXPECT_GT(max_count, 1000);
}

TEST(Generator, EmptyClassesThrow) {
  GeneratorConfig config;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
}

TEST(TraceIo, TextRoundTrip) {
  // The reader densifies object ids by first appearance, so compare
  // against the densified original.
  const auto t = generate_zipf_trace(500, 50, 0.9, 2);
  auto expected = t.requests();
  densify_object_ids(expected);
  std::stringstream ss;
  write_text_trace(t, ss);
  const auto back = read_text_trace(ss);
  EXPECT_EQ(back.requests(), expected);
}

TEST(TraceIo, TextDefaultsCostToSize) {
  std::stringstream ss("# comment\n5 100\n5 100\n");
  const auto t = read_text_trace(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].object, 0u);  // densified
  EXPECT_DOUBLE_EQ(t[0].cost, 100.0);
}

TEST(TraceIo, TextRejectsGarbage) {
  std::stringstream ss("nonsense line\n");
  EXPECT_THROW(read_text_trace(ss), std::runtime_error);
}

// Expect read_text_trace to reject `body` and name `where` (the faulting
// line) plus `what` (the reason) in the exception message.
void expect_text_rejected(const std::string& body, const std::string& where,
                          const std::string& what) {
  std::stringstream ss(body);
  try {
    read_text_trace(ss);
    FAIL() << "accepted malformed trace: " << body;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(where), std::string::npos)
        << "error lacks location '" << where << "': " << msg;
    EXPECT_NE(msg.find(what), std::string::npos)
        << "error lacks reason '" << what << "': " << msg;
  }
}

// Degenerate records used to slide straight through the reader: a size-0
// object inflates byte-hit ratios with free "hits" and produces
// zero-capacity MCMF arcs, a negative cost flips the flow objective, and
// NaN poisons every aggregate. All must be rejected with the line named.
TEST(TraceIo, TextRejectsZeroSize) {
  expect_text_rejected("# header\n1 100\n2 0\n", "line 3", "size");
}

TEST(TraceIo, TextRejectsNegativeCost) {
  expect_text_rejected("7 50 -1.5\n", "line 1", "cost");
}

TEST(TraceIo, TextRejectsNonFiniteCost) {
  // from_chars parses "nan"/"inf" spellings, so they reach validation.
  expect_text_rejected("7 50 nan\n", "line 1", "finite");
  expect_text_rejected("7 50 inf\n", "line 1", "finite");
  expect_text_rejected("7 50 -inf\n", "line 1", "finite");
}

TEST(TraceIo, TextRejectionNamesTheRightLine) {
  // Comments and blank lines still advance the line counter: the report
  // must point at the file line an editor would jump to, not the Nth
  // parsed record.
  expect_text_rejected("# c\n\n1 10\n# c\n2 0\n", "line 5", "size");
}

// ---------------------------------------------------------- ttl column

TEST(TraceIo, TextMixedTtlAndLegacyLinesParse) {
  // Old-format (2/3 column) and new-format (4 column) lines coexist in
  // one file: pre-TTL traces and appended ttl-bearing tails load as a
  // unit, with absent ttls defaulting to 0 (never expires).
  std::stringstream ss(
      "# object size cost [ttl]\n"
      "10 100\n"           // legacy: cost defaults to size, no ttl
      "11 200 150.5\n"     // legacy: explicit cost, no ttl
      "12 300 300 5000\n"  // full four-column form
      "10 100 100 0\n");   // explicit ttl 0 == legacy semantics
  const auto t = read_text_trace(ss);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0].ttl, 0u);
  EXPECT_FALSE(t[0].has_ttl());
  EXPECT_EQ(t[1].ttl, 0u);
  EXPECT_DOUBLE_EQ(t[1].cost, 150.5);
  EXPECT_EQ(t[2].ttl, 5000u);
  EXPECT_TRUE(t[2].has_ttl());
  EXPECT_EQ(t[3].ttl, 0u);
}

TEST(TraceIo, TextWriterEmitsTtlColumnOnlyWhenSet) {
  Trace t;
  t.push_back({5, 100, 100.0});
  Request with_ttl{6, 200, 200.0};
  with_ttl.ttl = 777;
  t.push_back(with_ttl);
  std::stringstream ss;
  write_text_trace(t, ss);
  const auto text = ss.str();
  // The ttl-free line keeps the legacy 3-column shape...
  EXPECT_NE(text.find("\n5 100 100\n"), std::string::npos) << text;
  // ...and the ttl-bearing one appends the 4th column.
  EXPECT_NE(text.find("\n6 200 200 777\n"), std::string::npos) << text;
  // Round trip preserves both.
  std::stringstream back(text);
  const auto parsed = read_text_trace(back);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].ttl, 0u);
  EXPECT_EQ(parsed[1].ttl, 777u);
}

TEST(TraceIo, TextRejectsMalformedTtlWithLineNumber) {
  expect_text_rejected("1 10\n2 20 20 x7\n", "line 2", "ttl");
  expect_text_rejected("# c\n1 10 10 5 extra\n", "line 2", "expected");
  expect_text_rejected("1 10 10 -4\n", "line 1", "ttl");
  expect_text_rejected("1 10 10 1.5\n", "line 1", "ttl");
}

TEST(TraceIo, BinaryTtlRoundTripUsesV2Format) {
  const auto base = generate_zipf_trace(300, 40, 0.9, 9);
  Trace with_ttl;
  for (std::uint64_t i = 0; i < base.size(); ++i) {
    auto r = base[i];
    r.ttl = (r.object % 3 == 0) ? 100 + r.object : 0;
    with_ttl.push_back(r);
  }
  std::stringstream ss;
  write_binary_trace(with_ttl, ss);
  EXPECT_EQ(ss.str().substr(0, 8), "LFOTRC02");
  const auto back = read_binary_trace(ss);
  EXPECT_EQ(back.requests(), with_ttl.requests());
}

TEST(TraceIo, BinaryTtlFreeTraceStaysLegacyV1) {
  // A ttl-free trace must keep the v01 byte layout so existing tooling
  // and checked-in fixtures read it unchanged.
  const auto t = generate_zipf_trace(200, 30, 0.9, 10);
  std::stringstream ss;
  write_binary_trace(t, ss);
  EXPECT_EQ(ss.str().substr(0, 8), "LFOTRC01");
  const auto back = read_binary_trace(ss);
  EXPECT_EQ(back.requests(), t.requests());
  for (const auto& r : back.requests()) EXPECT_FALSE(r.has_ttl());
}

TEST(TraceIo, BinaryRoundTrip) {
  const auto t = generate_zipf_trace(500, 50, 0.9, 3);
  std::stringstream ss;
  write_binary_trace(t, ss);
  const auto back = read_binary_trace(ss);
  EXPECT_EQ(back.requests(), t.requests());
}

TEST(TraceIo, BinaryRejectsBadMagic) {
  std::stringstream ss("not a trace file at all");
  EXPECT_THROW(read_binary_trace(ss), std::runtime_error);
}

// The header's record count is untrusted: a 16-byte file claiming a huge
// body must fail as truncated without allocating for the claimed count
// (which would exhaust memory or overflow the vector's size).
TEST(TraceIo, BinaryForgedCountFailsAsTruncated) {
  for (const int shift : {26, 40, 62}) {
    const std::uint64_t count = std::uint64_t{1} << shift;
    std::string file = "LFOTRC01";
    file.append(reinterpret_cast<const char*>(&count), sizeof count);
    std::stringstream ss(file);
    try {
      read_binary_trace(ss);
      FAIL() << "accepted a forged count of 2^" << shift;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trace io: truncated body")
          << "count 2^" << shift;
    } catch (const std::exception& e) {
      FAIL() << "count 2^" << shift << " threw a non-runtime_error: "
             << e.what();
    }
  }
}

// The binary reader applies the same record validation as the text one:
// the writer does not validate (it round-trips whatever it is given), so
// a corrupt or hand-built file must be caught on the way in.
TEST(TraceIo, BinaryRejectsDegenerateRecords) {
  const auto rejected_with = [](Trace bad, const std::string& what) {
    std::stringstream ss;
    write_binary_trace(bad, ss);
    try {
      read_binary_trace(ss);
      FAIL() << "accepted malformed binary trace (" << what << ")";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("record 1"), std::string::npos)
          << "error lacks record index: " << msg;
      EXPECT_NE(msg.find(what), std::string::npos)
          << "error lacks reason '" << what << "': " << msg;
    }
  };
  Trace zero_size;
  zero_size.push_back({0, 10, 10.0});
  zero_size.push_back({1, 0, 1.0});
  rejected_with(std::move(zero_size), "size");

  Trace negative_cost;
  negative_cost.push_back({0, 10, 10.0});
  negative_cost.push_back({1, 5, -2.0});
  rejected_with(std::move(negative_cost), "cost");

  Trace nan_cost;
  nan_cost.push_back({0, 10, 10.0});
  nan_cost.push_back({1, 5, std::numeric_limits<double>::quiet_NaN()});
  rejected_with(std::move(nan_cost), "finite");
}

TEST(TraceStats, ComputesAggregates) {
  Trace t;
  t.push_back({0, 10, 10});
  t.push_back({1, 20, 20});
  t.push_back({0, 10, 10});
  t.push_back({2, 30, 30});
  const auto s = compute_stats(t);
  EXPECT_EQ(s.num_requests, 4u);
  EXPECT_EQ(s.num_objects, 3u);
  EXPECT_EQ(s.total_bytes, 70u);
  EXPECT_EQ(s.unique_bytes, 60u);
  EXPECT_EQ(s.min_size, 10u);
  EXPECT_EQ(s.max_size, 30u);
  EXPECT_NEAR(s.one_hit_wonder_ratio, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.infinite_cache_bhr, 1.0 - 60.0 / 70.0, 1e-12);
  EXPECT_NEAR(s.infinite_cache_ohr, 1.0 - 3.0 / 4.0, 1e-12);
}

TEST(TraceStats, RequestCounts) {
  std::vector<Request> reqs{{0, 1, 1}, {2, 1, 1}, {0, 1, 1}};
  const auto counts = request_counts(reqs);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
}

}  // namespace
}  // namespace lfo::trace

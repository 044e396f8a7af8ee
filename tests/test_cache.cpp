#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cache/adaptsize.hpp"
#include "cache/factory.hpp"
#include "cache/gd_wheel.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/hyperbolic.hpp"
#include "cache/lfuda.hpp"
#include "cache/lhd.hpp"
#include "cache/lru.hpp"
#include "cache/lru_k.hpp"
#include "cache/random_cache.hpp"
#include "cache/rl_cache.hpp"
#include "cache/s4lru.hpp"
#include "cache/tinylfu.hpp"
#include "trace/generator.hpp"

namespace lfo::cache {
namespace {

using trace::Request;

Request req(trace::ObjectId o, std::uint64_t size = 1) {
  return {o, size, static_cast<double>(size)};
}

TEST(PolicyBase, StatsAccounting) {
  LruCache cache(10);
  EXPECT_FALSE(cache.access(req(1, 4)));
  EXPECT_TRUE(cache.access(req(1, 4)));
  EXPECT_EQ(cache.stats().requests, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().bytes_requested, 8u);
  EXPECT_EQ(cache.stats().bytes_hit, 4u);
  EXPECT_DOUBLE_EQ(cache.stats().ohr(), 0.5);
  EXPECT_DOUBLE_EQ(cache.stats().bhr(), 0.5);
  EXPECT_EQ(cache.used_bytes(), 4u);
  EXPECT_EQ(cache.free_bytes(), 6u);
}

TEST(PolicyBase, ZeroCapacityRejected) {
  EXPECT_THROW(LruCache(0), std::invalid_argument);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruCache cache(3);
  cache.access(req(1));
  cache.access(req(2));
  cache.access(req(3));
  cache.access(req(1));  // 1 is now MRU; LRU order: 2, 3, 1
  cache.access(req(4));  // evicts 2
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(Lru, StackInclusionProperty) {
  // A bigger LRU cache always contains a smaller one's content.
  const auto t = trace::generate_zipf_trace(5000, 200, 0.8, 31);
  LruCache small(64), big(256);
  for (const auto& r : t.requests()) {
    Request unit{r.object, 1, 1.0};
    small.access(unit);
    big.access(unit);
    // Every object in the small cache must be in the big one.
  }
  // Verify at the end (cheap version of the invariant).
  for (trace::ObjectId o = 0; o < 200; ++o) {
    if (small.contains(o)) {
      EXPECT_TRUE(big.contains(o)) << o;
    }
  }
}

TEST(Lru, OversizedObjectBypassed) {
  LruCache cache(10);
  cache.access(req(1, 100));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(Lru, ClearEmptiesCache) {
  LruCache cache(10);
  cache.access(req(1, 5));
  cache.clear();
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.stats().requests, 1u);  // stats survive clear()
}

TEST(Fifo, NoPromotionOnHit) {
  FifoCache cache(3);
  cache.access(req(1));
  cache.access(req(2));
  cache.access(req(3));
  cache.access(req(1));  // hit but NOT promoted
  cache.access(req(4));  // evicts 1 (insertion order)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Infinite, NeverEvicts) {
  InfiniteCache cache(1);
  for (trace::ObjectId o = 0; o < 100; ++o) cache.access(req(o, 1000));
  for (trace::ObjectId o = 0; o < 100; ++o) EXPECT_TRUE(cache.contains(o));
}

TEST(Random, SeedDeterminism) {
  const auto t = trace::generate_zipf_trace(3000, 100, 0.9, 32);
  RandomCache a(32, 5), b(32, 5), c(32, 6);
  for (const auto& r : t.requests()) {
    Request unit{r.object, 1, 1.0};
    a.access(unit);
    b.access(unit);
    c.access(unit);
  }
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_NE(a.stats().hits, c.stats().hits);  // virtually certain
}

TEST(LruK, PrefersObjectsWithKReferences) {
  // k=2: objects with two references have "full history"; one-timers are
  // evicted first regardless of recency.
  LruKCache cache(3, 2);
  cache.access(req(1));
  cache.access(req(1));  // 1 has 2 refs
  cache.access(req(2));  // one ref
  cache.access(req(3));  // one ref
  cache.access(req(4));  // must evict a partial-history object, not 1
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));  // oldest partial
}

TEST(LruK, K1BehavesLikeLru) {
  const auto t = trace::generate_zipf_trace(4000, 150, 0.9, 33);
  LruCache lru(64);
  LruKCache lruk(64, 1);
  for (const auto& r : t.requests()) {
    Request unit{r.object, 1, 1.0};
    lru.access(unit);
    lruk.access(unit);
  }
  EXPECT_EQ(lru.stats().hits, lruk.stats().hits);
}

TEST(Lfu, KeepsFrequentObjects) {
  LfudaCache cache(2, /*aging=*/false);
  cache.access(req(1));
  cache.access(req(1));
  cache.access(req(1));
  cache.access(req(2));
  cache.access(req(3));  // evicts 2 (freq 1) not 1 (freq 3)
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(Lfuda, AgingLetsNewObjectsDisplaceStaleOnes) {
  LfudaCache cache(1, /*aging=*/true);
  for (int i = 0; i < 10; ++i) cache.access(req(1));  // freq 10
  // With aging, each eviction raises the age floor; a stream of new
  // objects eventually displaces the stale-but-frequent object.
  for (trace::ObjectId o = 2; o < 40; ++o) cache.access(req(o));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_GT(cache.age(), 0.0);
}

TEST(S4Lru, HitPromotesThroughSegments) {
  SegmentedLruCache cache(8, 4);  // 2 bytes per segment
  cache.access(req(1));
  cache.access(req(1));  // promoted to segment 1, safe from seg-0 churn
  cache.access(req(2));
  cache.access(req(3));  // segment 0 now full (2 bytes)
  cache.access(req(4));  // overflow: LRU of segment 0 (obj 2) evicted
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(S4Lru, ObjectLargerThanSegmentBypassed) {
  SegmentedLruCache cache(8, 4);
  cache.access(req(1, 3));  // segment capacity is 2
  EXPECT_FALSE(cache.contains(1));
}

TEST(S4Lru, CapacityInvariantUnderLoad) {
  const auto t = trace::generate_zipf_trace(5000, 300, 0.9, 34);
  SegmentedLruCache cache(1 << 16, 4);
  for (const auto& r : t.requests()) {
    cache.access(r);
    ASSERT_LE(cache.used_bytes(), cache.capacity());
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(GreedyDual, GdsfPrefersSmallObjects) {
  // Unit costs (OHR model): GDSF priority = L + freq/size, so the largest
  // object has the lowest priority and is evicted first.
  GreedyDualCache cache(100, GreedyDualVariant::kGdsf);
  cache.access({1, 50, 1.0});
  cache.access({2, 10, 1.0});
  cache.access({3, 60, 1.0});  // needs 20 more bytes: evicts 1 (p = 1/50)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(GreedyDual, FrequencyProtectsInGdsf) {
  GreedyDualCache cache(100, GreedyDualVariant::kGdsf);
  for (int i = 0; i < 5; ++i) cache.access(req(1, 50));  // freq 5
  cache.access(req(2, 50));
  cache.access(req(3, 50));  // evict one: object 2 (freq 1) goes
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(GreedyDual, InflationMonotone) {
  GreedyDualCache cache(4, GreedyDualVariant::kGds);
  double last = 0.0;
  for (trace::ObjectId o = 0; o < 50; ++o) {
    cache.access(req(o, 2));
    EXPECT_GE(cache.inflation(), last);
    last = cache.inflation();
  }
  EXPECT_GT(last, 0.0);
}

TEST(GdWheel, BasicHitsAndCapacity) {
  GdWheelCache cache(1 << 12);
  const auto t = trace::generate_zipf_trace(5000, 100, 1.0, 35);
  for (const auto& r : t.requests()) {
    Request scaled{r.object, r.size % 512 + 1, 0};
    scaled.cost = static_cast<double>(scaled.size);
    cache.access(scaled);
    ASSERT_LE(cache.used_bytes(), cache.capacity());
  }
  EXPECT_GT(cache.stats().ohr(), 0.1);
}

TEST(GdWheel, ApproximatesGreedyDual) {
  // On a skewed trace, the wheel version should land near exact GDS.
  const auto t = trace::generate_zipf_trace(8000, 200, 1.0, 36);
  GdWheelCache wheel(1 << 14);
  GreedyDualCache exact(1 << 14, GreedyDualVariant::kGds);
  for (const auto& r : t.requests()) {
    Request scaled{r.object, r.size % 1024 + 1, 0};
    scaled.cost = static_cast<double>(scaled.size);
    wheel.access(scaled);
    exact.access(scaled);
  }
  EXPECT_NEAR(wheel.stats().ohr(), exact.stats().ohr(), 0.1);
}

TEST(Hyperbolic, EvictsLowFrequencyOldObjects) {
  HyperbolicCache cache(3, 64, /*size_aware=*/false, 1);
  cache.access(req(1));
  for (int i = 0; i < 20; ++i) cache.access(req(2));
  for (int i = 0; i < 20; ++i) cache.access(req(3));
  cache.access(req(4));  // evicts 1: lowest n/age by far
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Hyperbolic, CapacityInvariant) {
  const auto t = trace::generate_zipf_trace(5000, 200, 0.9, 37);
  HyperbolicCache cache(1 << 16, 64, true, 2);
  for (const auto& r : t.requests()) {
    cache.access(r);
    ASSERT_LE(cache.used_bytes(), cache.capacity());
  }
}

TEST(Lhd, LearnsToBeatRandomOnSkewedTrace) {
  const auto t = trace::generate_zipf_trace(60000, 500, 1.0, 38);
  LhdCache lhd(1 << 14, 64, 1);
  RandomCache rnd(1 << 14, 1);
  for (const auto& r : t.requests()) {
    Request unit{r.object, 64, 64.0};
    lhd.access(unit);
    rnd.access(unit);
  }
  EXPECT_GT(lhd.stats().ohr(), rnd.stats().ohr());
}

TEST(Lhd, CapacityInvariant) {
  const auto t = trace::generate_zipf_trace(20000, 300, 0.9, 39);
  LhdCache cache(1 << 16, 64, 3);
  for (const auto& r : t.requests()) {
    cache.access(r);
    ASSERT_LE(cache.used_bytes(), cache.capacity());
  }
}

TEST(AdaptSize, TunesAdmissionParameter) {
  // A bimodal workload (tiny popular objects + huge one-hit wonders)
  // should drive c down so that huge objects are mostly rejected.
  trace::GeneratorConfig config;
  config.num_requests = 300000;
  config.seed = 40;
  trace::ContentClass tiny;
  tiny.name = "tiny";
  tiny.num_objects = 200;
  tiny.zipf_alpha = 1.0;
  tiny.size_log_mean = std::log(64.0);
  tiny.size_log_sigma = 0.2;
  tiny.min_size = 32;
  tiny.max_size = 128;
  tiny.traffic_share = 0.7;
  trace::ContentClass huge = tiny;
  huge.name = "huge";
  huge.num_objects = 50000;
  huge.zipf_alpha = 0.1;
  huge.size_log_mean = std::log(65536.0);
  huge.min_size = 32768;
  huge.max_size = 131072;
  huge.traffic_share = 0.3;
  config.classes = {tiny, huge};
  const auto t = trace::generate_trace(config);

  AdaptSizeCache adapt(1 << 15, 1 << 14, 7);
  LruCache lru(1 << 15);
  for (const auto& r : t.requests()) {
    adapt.access(r);
    lru.access(r);
  }
  // Size-aware admission must beat plain LRU on OHR here.
  EXPECT_GT(adapt.stats().ohr(), lru.stats().ohr());
  EXPECT_LT(adapt.admission_parameter(), static_cast<double>(1 << 15));
}

TEST(TinyLfu, RejectsColdCandidateKeepsHotVictim) {
  TinyLfuCache cache(2);
  for (int i = 0; i < 10; ++i) {
    cache.access(req(1));
    cache.access(req(2));
  }
  cache.access(req(3));  // cold: estimate(3)=1 <= estimate(victim)
  EXPECT_FALSE(cache.contains(3));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(FrequencySketchTest, CountsAndAges) {
  FrequencySketch sketch(1024);
  for (int i = 0; i < 7; ++i) sketch.increment(42);
  EXPECT_GE(sketch.estimate(42), 7u);  // CMS overestimates only
  EXPECT_LE(sketch.estimate(42), 15u);
  const auto before = sketch.estimate(42);
  sketch.age();
  EXPECT_EQ(sketch.estimate(42), before / 2);
}

TEST(Rl, LearnsSomethingButStaysModest) {
  const auto t = trace::generate_zipf_trace(30000, 400, 0.9, 41);
  RlCache rl(1 << 14, 1);
  LruCache lru(1 << 14);
  for (const auto& r : t.requests()) {
    rl.access(r);
    lru.access(r);
  }
  // The Fig 1 point: RLC lands in the same league as LRU (within a wide
  // band), it does not magically dominate.
  EXPECT_GT(rl.stats().ohr(), 0.0);
  EXPECT_LT(rl.stats().ohr(), lru.stats().ohr() + 0.15);
  EXPECT_GT(rl.q_spread(), 0.0);  // it did learn *something*
}

TEST(Factory, CreatesEveryAdvertisedPolicy) {
  for (const auto& name : policy_names()) {
    const auto policy = make_policy(name, 1 << 20, 1);
    ASSERT_NE(policy, nullptr) << name;
    // A policy's canonical name should round-trip through the factory.
    EXPECT_EQ(policy->name(), name) << name;
  }
}

TEST(Factory, ParsesParameterizedNames) {
  EXPECT_EQ(make_policy("LRU-3", 1024)->name(), "LRU-3");
  EXPECT_EQ(make_policy("S2LRU", 1024)->name(), "S2LRU");
  EXPECT_THROW(make_policy("NoSuchPolicy", 1024), std::invalid_argument);
}

/// Every policy preserves the capacity invariant and produces sane stats
/// on a mixed-size CDN trace.
class AllPolicies : public ::testing::TestWithParam<std::string> {};

TEST_P(AllPolicies, CapacityInvariantAndSaneStats) {
  trace::GeneratorConfig config;
  config.num_requests = 8000;
  config.seed = 50;
  config.classes = trace::production_mix(0.01);
  const auto t = trace::generate_trace(config);
  const auto cache_size = t.unique_bytes() / 10;
  auto policy = make_policy(GetParam(), cache_size, 3);
  for (const auto& r : t.requests()) {
    policy->access(r);
    ASSERT_LE(policy->used_bytes(), policy->capacity()) << GetParam();
  }
  EXPECT_EQ(policy->stats().requests, t.size());
  EXPECT_LE(policy->stats().bhr(), 1.0);
  EXPECT_LE(policy->stats().ohr(), 1.0);
  // clear() empties contents.
  policy->clear();
  EXPECT_EQ(policy->used_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Zoo, AllPolicies,
                         ::testing::ValuesIn([] {
                           auto names = policy_names();
                           // Infinite intentionally exceeds capacity.
                           std::erase(names, std::string("Infinite"));
                           return names;
                         }()));

}  // namespace
}  // namespace lfo::cache

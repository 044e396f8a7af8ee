// Zero-allocation guarantee of the serving hot path. This binary replaces
// the global operator new/delete with counting wrappers and asserts that,
// once warm, (a) FlatForest prediction, (b) FeatureExtractor::extract,
// (c) a full LfoCache replay of hits and bypassed misses, and (d) the
// sharded cache and the server's frame path — per-shard groups, and a
// frame whose groups go through another owner's inbox — perform ZERO
// heap allocations per request. "Warm" means every object has reached
// num_gaps requests: history rings grow by size class until then. The
// strict zero assertions only run in optimized, unsanitized builds (the
// perf-smoke stage of tools/run_static_checks.sh runs them in Release);
// elsewhere the flows still execute but the counts are informational.
// The history store's growth is bounded too: (e) bringing many new
// objects to full depth allocates a few times per size class, not once
// per object, and a one-hit object costs at most 64 bytes. (f) Under
// admission churn an admission allocates at most its entry's map node.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "features/features.hpp"
#include "gbdt/flat_forest.hpp"
#include "gbdt/gbdt.hpp"
#include "obs/metrics.hpp"
#include "server/server.hpp"
#include "server/sharded_cache.hpp"
#include "trace/request.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator. Counts every successful allocation; frees are
// uncounted (the hot-path claim is about allocations). All variants route
// through malloc/free so pairs always match — GCC cannot see that and
// warns about the free() in the replaced delete.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size ? size : 1);
  if (p) g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace lfo;

// Strict zero assertions need an optimized, unsanitized build: sanitizer
// runtimes insert their own allocations and debug containers may too.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kStrict = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kStrict = false;
#elif defined(NDEBUG)
constexpr bool kStrict = true;
#else
constexpr bool kStrict = false;
#endif
#elif defined(NDEBUG)
constexpr bool kStrict = true;
#else
constexpr bool kStrict = false;
#endif

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void expect_zero_allocations(std::uint64_t delta, const char* what) {
  if (kStrict) {
    EXPECT_EQ(delta, 0u) << what << " allocated on the hot path";
  } else if (delta != 0) {
    GTEST_SKIP() << what << ": " << delta
                 << " allocations observed, but strict zero-allocation "
                    "assertions require an optimized unsanitized build";
  }
}

/// An admission model that decides purely on object size: <= 100 bytes
/// scores sigmoid(+2) (admit), larger scores sigmoid(-2) (bypass). Keeps
/// the steady-state replay free of admissions and evictions.
gbdt::Model size_split_model() {
  gbdt::Tree tree(0.0);
  tree.split_leaf(0, /*feature=*/0, /*threshold=*/100.0f, +2.0, -2.0);
  std::vector<gbdt::Tree> trees;
  trees.push_back(std::move(tree));
  return gbdt::Model(0.0, std::move(trees));
}

/// Warm passes for the steady-state tests below: every object gets
/// num_gaps (16) requests, so its history ring is at full depth.
constexpr std::uint64_t kWarmPasses = 16;

TEST(HotPathAlloc, FlatForestPredictAllocatesNothing) {
  // 129 trees: three walk blocks, the last one tree long.
  std::vector<gbdt::Tree> trees(129, size_split_model().tree(0));
  const auto forest =
      gbdt::FlatForest::compile(gbdt::Model(0.0, std::move(trees)));
  constexpr std::size_t kRows = 256, kDim = 3;
  std::vector<float> matrix(kRows * kDim, 50.0f);

  const auto before = allocations();
  double sink = 0.0;
  for (int round = 0; round < 100; ++round) {
    for (std::size_t r = 0; r < kRows; ++r) {
      sink += forest.predict_proba(
          std::span<const float>{matrix.data() + r * kDim, kDim});
    }
  }
  expect_zero_allocations(allocations() - before, "FlatForest predict");
  EXPECT_GT(sink, 0.0);
}

TEST(HotPathAlloc, WarmFeatureExtractAllocatesNothing) {
  features::FeatureConfig config;
  config.num_gaps = 16;
  features::FeatureExtractor extractor(config);
  features::FeatureScratch scratch;
  std::vector<float> row(extractor.dimension());
  std::vector<trace::Request> requests;
  for (std::uint64_t i = 0; i < 64; ++i) {
    requests.push_back(trace::Request{i % 8, 50 + i % 8, 50.0});
  }
  // Warm passes: history rings and scratch size themselves here. Each
  // pass gives each of the 8 objects 8 requests.
  std::uint64_t t = 0;
  for (std::uint64_t pass = 0; pass < config.num_gaps / 8; ++pass) {
    for (const auto& r : requests) {
      extractor.extract(r, t, 1 << 20, row, scratch);
      extractor.observe(r, t);
      ++t;
    }
  }
  ASSERT_EQ(extractor.history().depth(0), config.num_gaps);

  const auto before = allocations();
  for (int round = 0; round < 100; ++round) {
    for (const auto& r : requests) {
      extractor.extract(r, t, 1 << 20, row, scratch);
      extractor.observe(r, t);
      ++t;
    }
  }
  expect_zero_allocations(allocations() - before,
                          "FeatureExtractor::extract/observe");
  EXPECT_GT(row[0], 0.0f);
}

TEST(HotPathAlloc, LfoCacheSteadyStateAllocatesNothing) {
  features::FeatureConfig config;
  config.num_gaps = 16;
  core::LfoCache cache(/*capacity=*/4096, config);
  cache.swap_model(std::make_shared<core::LfoModel>(
      size_split_model(), config));

  // Ten small objects (admitted, then permanent hits) and five large
  // objects (under capacity but above the model's size split, so the
  // predictor bypasses them on every miss) — no admissions or evictions
  // once warm, i.e. the steady state the zero-allocation claim covers.
  std::vector<trace::Request> requests;
  for (std::uint64_t i = 0; i < 10; ++i) {
    requests.push_back(trace::Request{i, 50, 50.0});
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    requests.push_back(trace::Request{100 + i, 2000, 2000.0});
  }

  // Warm passes: admissions, history rings, metric-handle registration,
  // and hash-map growth all happen here.
  for (std::uint64_t pass = 0; pass < kWarmPasses; ++pass) {
    for (const auto& r : requests) cache.access(r);
  }
  // Smalls were admitted on the first pass and hit on every later one;
  // larges bypassed on every pass.
  ASSERT_EQ(cache.stats().hits, 10u * (kWarmPasses - 1));
  ASSERT_EQ(cache.bypassed(), 5u * kWarmPasses);

  const auto before = allocations();
  for (int round = 0; round < 100; ++round) {
    for (const auto& r : requests) cache.access(r);
  }
  expect_zero_allocations(allocations() - before,
                          "LfoCache steady-state access");
  // The replay really exercised both hot paths: hits and bypassed misses.
  EXPECT_EQ(cache.stats().hits, 10u * (kWarmPasses - 1 + 100));
  EXPECT_EQ(cache.bypassed(), 5u * (kWarmPasses + 100));
}

TEST(HotPathAlloc, AdmissionChurnAllocatesOneNodePerAdmission) {
  // A cyclic scan over 100 small objects when 80 fit: once warm, every
  // request misses, is admitted and evicts the least recent entry (the
  // model scores them all alike). An admission may allocate its entry's
  // map node and nothing else: the LRU links live in the entry.
  features::FeatureConfig config;
  config.num_gaps = 16;
  core::LfoCache cache(/*capacity=*/80 * 50, config);
  cache.swap_model(std::make_shared<core::LfoModel>(
      size_split_model(), config));
  std::vector<trace::Request> requests;
  for (std::uint64_t i = 0; i < 100; ++i) {
    requests.push_back(trace::Request{i, 50, 50.0});
  }
  for (std::uint64_t pass = 0; pass < kWarmPasses; ++pass) {
    for (const auto& r : requests) cache.access(r);
  }
  ASSERT_EQ(cache.stats().hits, 0u);
  ASSERT_EQ(cache.bypassed(), 0u);

  constexpr std::uint64_t kRounds = 100;
  const auto before = allocations();
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (const auto& r : requests) cache.access(r);
  }
  const auto delta = allocations() - before;
  // Every request was a miss that admitted.
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.bypassed(), 0u);
  const std::uint64_t admissions = kRounds * requests.size();
  if (kStrict) {
    EXPECT_LE(delta, admissions) << "allocations per admission above one";
  } else if (delta > admissions) {
    GTEST_SKIP() << delta << " allocations for " << admissions
                 << " admissions, but the bound needs an optimized "
                    "unsanitized build";
  }
}

/// Ten small objects (admitted, then permanent hits) and five large ones
/// the size-split model bypasses on every miss: no admissions or
/// evictions once warm.
std::vector<trace::Request> steady_state_requests() {
  std::vector<trace::Request> requests;
  for (std::uint64_t i = 0; i < 10; ++i) {
    requests.push_back(trace::Request{i, 50, 50.0});
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    requests.push_back(trace::Request{100 + i, 2000, 2000.0});
  }
  return requests;
}

server::ShardedCacheConfig steady_state_shards() {
  server::ShardedCacheConfig config;
  config.capacity = 8 * 4096;
  config.num_shards = 8;
  config.features.num_gaps = 16;
  return config;
}

TEST(HotPathAlloc, ShardedCacheSteadyStateAllocatesNothing) {
  // The server's per-request path: shard hash + striped lock + the
  // guarded LfoCache access. Once warm it must add zero allocations on
  // top of the single-cache guarantee above (the lock is pthread state,
  // not heap traffic).
  const auto config = steady_state_shards();
  server::ShardedLfoCache cache(config);
  cache.swap_model(std::make_shared<core::LfoModel>(size_split_model(),
                                                    config.features));

  // Same steady-state workload as the single-cache tests, spread across
  // shards by the hash.
  const auto requests = steady_state_requests();
  for (std::uint64_t pass = 0; pass < kWarmPasses; ++pass) {
    for (const auto& r : requests) cache.access(r);
  }
  ASSERT_EQ(cache.stats().hits, 10u * (kWarmPasses - 1));
  ASSERT_EQ(cache.bypassed(), 5u * kWarmPasses);

  const auto before = allocations();
  for (int round = 0; round < 100; ++round) {
    for (const auto& r : requests) cache.access(r);
  }
  expect_zero_allocations(allocations() - before,
                          "ShardedLfoCache steady-state access");
  EXPECT_EQ(cache.stats().hits, 10u * (kWarmPasses - 1 + 100));
  EXPECT_EQ(cache.bypassed(), 5u * (kWarmPasses + 100));
}

TEST(HotPathAlloc, ShardedCacheGroupedFrameAllocatesNothing) {
  // The server's frame path: each shard's group of a frame served under
  // one acquisition of the shard lock.
  const auto config = steady_state_shards();
  server::ShardedLfoCache cache(config);
  cache.swap_model(std::make_shared<core::LfoModel>(size_split_model(),
                                                    config.features));
  const auto requests = steady_state_requests();
  std::vector<std::vector<std::uint32_t>> groups(config.num_shards);
  for (std::uint32_t i = 0; i < requests.size(); ++i) {
    groups[cache.shard_of(requests[i].object)].push_back(i);
  }
  std::vector<server::AccessResult> results(requests.size());
  auto serve_frame = [&] {
    for (std::uint32_t s = 0; s < config.num_shards; ++s) {
      cache.access_shard(s, requests, groups[s], results);
    }
  };
  for (std::uint64_t pass = 0; pass < kWarmPasses; ++pass) serve_frame();
  ASSERT_EQ(cache.stats().hits, 10u * (kWarmPasses - 1));
  ASSERT_EQ(cache.bypassed(), 5u * kWarmPasses);

  const auto before = allocations();
  for (int round = 0; round < 100; ++round) serve_frame();
  expect_zero_allocations(allocations() - before,
                          "ShardedLfoCache::access_shard frame");
  EXPECT_EQ(cache.stats().hits, 10u * (kWarmPasses - 1 + 100));
  EXPECT_EQ(cache.bypassed(), 5u * (kWarmPasses + 100));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(results[i].hit, requests[i].size == 50) << "request " << i;
  }
}

TEST(HotPathAlloc, ServerFrameThroughAnotherOwnersInboxAllocatesNothing) {
  // Two workers own alternate shards, so every frame of the one
  // connection is split: one worker serves its groups inline and posts
  // the frame to the other's inbox. Socket buffers, the frame, the inbox
  // and the reply are all reused once warm.
  server::LfoServerConfig config;
  config.workers = 2;
  config.cache = steady_state_shards();
  config.telemetry = false;
  server::LfoServer lfo_server(config);
  lfo_server.cache().swap_model(std::make_shared<core::LfoModel>(
      size_split_model(), config.cache.features));
  const auto requests = steady_state_requests();
  bool owned[2] = {false, false};
  for (const auto& r : requests) {
    owned[lfo_server.cache().shard_of(r.object) % 2] = true;
  }
  ASSERT_TRUE(owned[0] && owned[1]) << "the frame must span both owners";
  ASSERT_TRUE(lfo_server.start()) << lfo_server.last_error();

  server::LfoClient client;
  ASSERT_TRUE(client.connect(lfo_server.port()));
  std::vector<server::WireDecision> decisions;
  for (std::uint64_t pass = 0; pass < kWarmPasses; ++pass) {
    ASSERT_TRUE(client.exchange(requests, decisions));
  }
  ASSERT_EQ(lfo_server.cache().stats().hits, 10u * (kWarmPasses - 1));
  const auto& handoffs = obs::MetricsRegistry::instance().counter(
      "lfo_server_handoffs_total");
  const auto handoffs_before = handoffs.value();

  const auto before = allocations();
  bool exchanged = true;
  for (int round = 0; round < 100; ++round) {
    exchanged &= client.exchange(requests, decisions);
  }
  const auto delta = allocations() - before;
  ASSERT_TRUE(exchanged);
  expect_zero_allocations(delta, "server frame through the owner inbox");
  EXPECT_EQ(lfo_server.cache().stats().hits,
            10u * (kWarmPasses - 1 + 100));
  EXPECT_EQ(handoffs.value(), handoffs_before + 100);
  client.close();
  lfo_server.stop();
}

TEST(HotPathAlloc, HistoryGrowthAllocatesPerClassNotPerObject) {
  // 100,000 new objects, each brought to full depth, one request per
  // object per pass: ring blocks come from per-class slabs that grow
  // geometrically, and slots from one table that doubles, so the count
  // stays far below one allocation per object.
  constexpr std::uint64_t kObjects = 100'000;
  features::HistoryTable history(16);
  const auto before = allocations();
  std::uint64_t t = 0;
  for (std::uint64_t pass = 0; pass < 16; ++pass) {
    for (std::uint64_t id = 0; id < kObjects; ++id) history.record(id, ++t);
  }
  const auto delta = allocations() - before;
  EXPECT_LE(delta, 1000u);
  EXPECT_EQ(history.tracked_objects(), kObjects);
  EXPECT_EQ(history.depth(kObjects - 1), 16u);
}

TEST(HotPathAlloc, OneHitHistoryCostsAtMost64Bytes) {
  // The paper's sparsity argument (§2.2): most objects are requested
  // once, so a one-hit object must cost one slot and one timestamp.
  constexpr std::uint64_t kObjects = 100'000;
  features::HistoryTable history(50);
  for (std::uint64_t id = 0; id < kObjects; ++id) {
    history.record(id * 7919, id);
  }
  ASSERT_EQ(history.tracked_objects(), kObjects);
  EXPECT_LE(history.bytes(), 64u * kObjects);
  EXPECT_LE(history.bytes_per_object(), 64u);
}

}  // namespace

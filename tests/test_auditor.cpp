// AuditedPolicy property tests: every factory-registered policy must
// survive the full contract audit on randomized Zipf traces, including the
// degenerate capacities, and the auditor must actually catch broken
// policies (verified with deliberately buggy implementations).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/factory.hpp"
#include "cache/policy.hpp"
#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "sim/auditor.hpp"
#include "trace/generator.hpp"
#include "trace/trace.hpp"

namespace {

using lfo::cache::CachePolicy;
using lfo::sim::AuditConfig;
using lfo::sim::AuditedPolicy;
using lfo::sim::make_audited_policy;
using lfo::trace::Request;

void replay(AuditedPolicy& audited, const lfo::trace::Trace& trace) {
  for (const auto& r : trace.requests()) audited.access(r);
}

TEST(AuditedPolicy, EveryFactoryPolicyPassesOnZipfTraces) {
  const auto trace =
      lfo::trace::generate_zipf_trace(4000, 300, 0.9, /*seed=*/11);
  for (const auto& name : lfo::cache::policy_names()) {
    // Several capacities: comfortable, tight, and pathologically small
    // (1 byte: everything is bypassed, nothing may be admitted).
    for (const std::uint64_t capacity :
         {trace.unique_bytes() / 4, trace.unique_bytes() / 50,
          std::uint64_t{1}}) {
      SCOPED_TRACE(name + " @ " + std::to_string(capacity));
      std::unique_ptr<AuditedPolicy> audited;
      try {
        audited = make_audited_policy(name, capacity, /*seed=*/5);
      } catch (const std::invalid_argument&) {
        continue;  // rejecting a tiny capacity outright is a valid contract
      }
      replay(*audited, trace);
      EXPECT_EQ(audited->stats().requests, trace.size());
      // The wrapper's stats pipeline and the inner policy's must agree
      // on every counter.
      EXPECT_EQ(audited->stats().hits, audited->inner().stats().hits);
      EXPECT_EQ(audited->stats().bytes_hit,
                audited->inner().stats().bytes_hit);
      EXPECT_EQ(audited->used_bytes(), audited->inner().used_bytes());
    }
  }
}

TEST(AuditedPolicy, SurvivesDriftingMultiSeedTraces) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    lfo::trace::GeneratorConfig gc;
    gc.num_requests = 3000;
    gc.seed = seed;
    gc.classes = {lfo::trace::web_class(400),
                  lfo::trace::download_class(30)};
    gc.drift.reshuffle_interval = 500;
    gc.drift.reshuffle_fraction = 0.3;
    const auto trace = lfo::trace::generate_trace(gc);
    for (const auto& name : lfo::cache::policy_names()) {
      SCOPED_TRACE(name + " seed " + std::to_string(seed));
      auto audited =
          make_audited_policy(name, trace.unique_bytes() / 10, seed);
      replay(*audited, trace);
      EXPECT_EQ(audited->stats().requests, trace.size());
    }
  }
}

TEST(AuditedPolicy, ZeroCapacityIsRejectedForEveryPolicy) {
  for (const auto& name : lfo::cache::policy_names()) {
    SCOPED_TRACE(name);
    EXPECT_THROW(make_audited_policy(name, 0), std::invalid_argument);
  }
}

TEST(AuditedPolicy, SingleObjectLargerThanCacheNeverHits) {
  lfo::trace::Trace trace;
  for (int i = 0; i < 200; ++i) {
    trace.push_back(Request{/*object=*/0, /*size=*/1000, /*cost=*/1000.0});
  }
  for (const auto& name : lfo::cache::policy_names()) {
    if (name == "Infinite") continue;  // admits regardless of capacity
    SCOPED_TRACE(name);
    auto audited = make_audited_policy(name, /*capacity=*/100);
    replay(*audited, trace);
    EXPECT_EQ(audited->stats().hits, 0U)
        << name << " claimed hits on an object that can never fit";
    EXPECT_EQ(audited->used_bytes(), 0U);
  }
}

TEST(AuditedPolicy, ClearResetsResidencyEverywhere) {
  const auto trace = lfo::trace::generate_zipf_trace(500, 60, 1.0, 2);
  for (const auto& name : lfo::cache::policy_names()) {
    SCOPED_TRACE(name);
    auto audited = make_audited_policy(name, trace.unique_bytes() / 4);
    replay(*audited, trace);
    audited->clear();
    EXPECT_EQ(audited->shadow_objects(), 0U);
    EXPECT_EQ(audited->inner().used_bytes(), 0U);
    // Stats survive clear() by contract.
    EXPECT_EQ(audited->stats().requests, trace.size());
  }
}

TEST(AuditedPolicy, FullAuditSurvivesModelSwapAndFallbackTransitions) {
  // The rollout guard's lifecycle on the serving cache: bootstrap ->
  // model swap -> fallback (swap_model(nullptr)) -> recovery. Each
  // transition re-routes admissions, which is exactly where
  // an incremental audit could lag behind; audit_full() sweeps the whole
  // shadow at each boundary.
  const auto trace = lfo::trace::generate_zipf_trace(4000, 400, 0.9, 21);
  lfo::core::LfoConfig lfo_config;
  lfo_config.set_cache_size(trace.unique_bytes() / 8);
  lfo_config.features.num_gaps = 6;
  lfo_config.gbdt.num_iterations = 4;

  auto inner = std::make_unique<lfo::core::LfoCache>(
      lfo_config.cache_size, lfo_config.features, lfo_config.cutoff);
  auto* lfo = inner.get();
  AuditedPolicy audited(std::move(inner));

  const std::size_t window = trace.size() / 4;
  const auto replay_window = [&](std::size_t index) {
    for (const auto& r : trace.window(index * window, window)) {
      audited.access(r);
    }
    audited.audit_full();
  };

  replay_window(0);  // bootstrap heuristic
  const auto trained =
      lfo::core::train_on_window(trace.window(0, window), lfo_config);
  ASSERT_NE(trained.model, nullptr);
  lfo->swap_model(trained.model);  // bootstrap -> serving
  audited.audit_full();
  replay_window(1);

  lfo->swap_model(nullptr);  // serving -> heuristic fallback
  audited.audit_full();
  EXPECT_FALSE(lfo->has_model());
  replay_window(2);

  const auto retrained = lfo::core::train_on_window(
      trace.window(2 * window, window), lfo_config);
  ASSERT_NE(retrained.model, nullptr);
  lfo->swap_model(retrained.model);  // fallback -> recovered
  audited.audit_full();
  replay_window(3);

  EXPECT_EQ(audited.stats().requests, 4 * window);
  EXPECT_EQ(audited.used_bytes(), audited.inner().used_bytes());
}

// --- the auditor must catch broken policies ------------------------------

/// Claims residency for every object ever requested without admitting
/// anything: caught because the "admission" never shows up in used_bytes.
class LyingContainsPolicy final : public CachePolicy {
 public:
  explicit LyingContainsPolicy(std::uint64_t capacity)
      : CachePolicy(capacity) {}
  std::string name() const override { return "LyingContains"; }
  bool contains(lfo::trace::ObjectId object) const override {
    return seen_.count(object) != 0;
  }
  void clear() override { seen_.clear(); }

 protected:
  void on_hit(const Request&) override {}
  void on_miss(const Request& request) override {
    seen_.insert(request.object);  // no add_used: a lie, not an admission
  }

 private:
  std::unordered_set<lfo::trace::ObjectId> seen_;
};

/// A corrupted residency index that starts answering "resident" only after
/// an object has been queried a few times — so the first observable
/// residency is a hit on an object the auditor never saw admitted.
class PhantomHitPolicy final : public CachePolicy {
 public:
  explicit PhantomHitPolicy(std::uint64_t capacity) : CachePolicy(capacity) {}
  std::string name() const override { return "PhantomHit"; }
  bool contains(lfo::trace::ObjectId object) const override {
    return ++queries_[object] >= 4;
  }
  void clear() override { queries_.clear(); }

 protected:
  void on_hit(const Request&) override {}
  void on_miss(const Request&) override {}

 private:
  mutable std::unordered_map<lfo::trace::ObjectId, int> queries_;
};

/// Admits without ever evicting: blows through capacity.
class OverAdmitPolicy final : public CachePolicy {
 public:
  explicit OverAdmitPolicy(std::uint64_t capacity) : CachePolicy(capacity) {}
  std::string name() const override { return "OverAdmit"; }
  bool contains(lfo::trace::ObjectId object) const override {
    return resident_.count(object) != 0;
  }
  void clear() override { resident_.clear(); }

 protected:
  void on_hit(const Request&) override {}
  void on_miss(const Request& request) override {
    resident_.insert(request.object);
    add_used(request.size);  // never evicts first
  }

 private:
  std::unordered_set<lfo::trace::ObjectId> resident_;
};

/// Drops the object it just hit: a hit must leave its object resident.
class SelfEvictOnHitPolicy final : public CachePolicy {
 public:
  explicit SelfEvictOnHitPolicy(std::uint64_t capacity)
      : CachePolicy(capacity) {}
  std::string name() const override { return "SelfEvictOnHit"; }
  bool contains(lfo::trace::ObjectId object) const override {
    return resident_.count(object) != 0;
  }
  void clear() override { resident_.clear(); }

 protected:
  void on_hit(const Request& request) override {
    resident_.erase(request.object);
    sub_used(request.size);
  }
  void on_miss(const Request& request) override {
    resident_.insert(request.object);
    add_used(request.size);
  }

 private:
  std::unordered_set<lfo::trace::ObjectId> resident_;
};

using AuditorDeathTest = ::testing::Test;

TEST(AuditorDeathTest, CatchesUnaccountedAdmissions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    AuditedPolicy audited(std::make_unique<LyingContainsPolicy>(1000));
    // The claimed admission never reaches used_bytes: byte-accounting
    // cross-check fires on the very first access.
    audited.access(Request{/*object=*/42, /*size=*/10, /*cost=*/10.0});
  };
  EXPECT_DEATH(run(), "not reflected in used bytes");
}

TEST(AuditorDeathTest, CatchesPhantomHits) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    AuditConfig config;
    config.check_byte_accounting = false;  // isolate the shadow check
    AuditedPolicy audited(std::make_unique<PhantomHitPolicy>(1000), config);
    const Request r{/*object=*/42, /*size=*/10, /*cost=*/10.0};
    audited.access(r);  // miss; index not yet claiming residency
    audited.access(r);  // index now claims a hit the shadow never saw
  };
  EXPECT_DEATH(run(), "never admitted");
}

TEST(AuditorDeathTest, CatchesCapacityOverflow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    // The base-class contract fires inside add_used even before the
    // auditor's own capacity cross-check.
    OverAdmitPolicy policy(100);
    for (std::uint64_t i = 0; i < 10; ++i) {
      policy.access(Request{static_cast<lfo::trace::ObjectId>(i), 60, 60.0});
    }
  };
  EXPECT_DEATH(run(), "admission over capacity");
}

TEST(AuditorDeathTest, CatchesEvictionOnItsOwnHit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    AuditedPolicy audited(std::make_unique<SelfEvictOnHitPolicy>(1000));
    const Request r{/*object=*/42, /*size=*/10, /*cost=*/10.0};
    audited.access(r);  // miss: admitted
    audited.access(r);  // hit: the policy drops the hit object
  };
  EXPECT_DEATH(run(), "on its own hit path");
}

TEST(AuditorDeathTest, RejectsUsedPolicies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    auto inner = lfo::cache::make_policy("LRU", 1000, 1);
    inner->access(Request{1, 10, 10.0});
    AuditedPolicy audited(std::move(inner));  // stats already advanced
  };
  EXPECT_DEATH(run(), "fresh policy");
}

}  // namespace

#ifndef LFO_SERVER_SHARDED_CACHE_HPP
#define LFO_SERVER_SHARDED_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/policy.hpp"
#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "core/rollout.hpp"
#include "features/features.hpp"
#include "trace/request.hpp"
#include "util/thread_annotations.hpp"

namespace lfo::server {

/// Configuration of a sharded concurrent LFO cache (ROADMAP item 1).
struct ShardedCacheConfig {
  /// Total cache bytes, split evenly across shards (each shard gets
  /// capacity / num_shards; the sub-shard remainder is unused).
  std::uint64_t capacity = 1ULL << 30;
  /// Number of independently locked partitions. 1 reproduces the
  /// single-threaded simulator exactly (same capacity, same logical
  /// clock sequence) — the equivalence contract tests/test_server.cpp
  /// locks against the golden traces.
  std::uint32_t num_shards = 8;
  features::FeatureConfig features;
  double cutoff = 0.5;
  core::LfoPolicyOptions options;  // kept only for lfo_bench; empty
  /// Gate thresholds for install_candidate()'s RolloutGuard.
  core::RolloutConfig rollout;
};

/// Outcome of one request against the sharded cache. `expired` marks a
/// hit on a stale copy (Request::ttl elapsed): the copy was dropped and
/// the request re-entered through the admission path, so it counts as a
/// miss in `hit` — exactly the single-cache LfoCache semantics.
struct AccessResult {
  bool hit = false;
  bool expired = false;
};

/// One `core::LfoCache` partitioned N ways by object-id hash, one
/// `util::Mutex` per shard (striped locking). Requests for an object
/// always land on the same shard, so per-object feature history, TTL
/// deadlines and eviction order stay exactly as coherent as in the
/// single-threaded cache; cross-shard state (capacity, stats) is the sum
/// of the shard-local values, merged on read.
///
/// Concurrency contract:
///  - access() takes exactly one shard lock; requests to different
///    shards proceed in parallel, requests to the same shard serialize.
///    access_shard() serves a group of one shard's requests under one
///    acquisition of the same lock; the server runs each shard's groups
///    on the one worker that owns the shard (DESIGN.md decision 9), so
///    that lock is uncontended on the serving path.
///  - Each shard keeps its own logical clock (its request count), so
///    TTL expiry and gap features are measured in shard-local time.
///    With num_shards == 1 this is the simulator's global clock and the
///    decision sequence is identical to a plain LfoCache replay.
///  - swap_model() / install_candidate() lock shards one at a time;
///    model swaps are atomic per shard, not across shards (two shards
///    can briefly serve different models — same situation as two CDN
///    front-end processes mid-deploy, and harmless because decisions
///    are per-request).
///  - stats(), bypassed(), used_bytes(),
///    history_objects() and history_bytes() merge shard-locals on read,
///    taking each shard lock in turn. They are the single source of the
///    serving counts: nothing on the access path mirrors them, and the
///    server exports them at scrape time.
class ShardedLfoCache {
 public:
  explicit ShardedLfoCache(ShardedCacheConfig config);

  ShardedLfoCache(const ShardedLfoCache&) = delete;
  ShardedLfoCache& operator=(const ShardedLfoCache&) = delete;

  /// Process one request on its shard. Safe to call from any number of
  /// threads concurrently.
  AccessResult access(const trace::Request& request);

  /// Process one shard's share of a frame: requests[i] for each i in
  /// `order`, in that order, under one acquisition of the shard lock,
  /// with each result written to out[i]. Every requests[i] named in
  /// `order` must map to `shard` (shard_of), and `out` must be as long as
  /// `requests`. Decisions equal calling access() on the same requests in
  /// the same order. Safe to call concurrently with every other member.
  void access_shard(std::uint32_t shard,
                    std::span<const trace::Request> requests,
                    std::span<const std::uint32_t> order,
                    std::span<AccessResult> out);

  /// The shard a given object maps to (deterministic, seed-free).
  std::uint32_t shard_of(trace::ObjectId object) const;
  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Install `model` on every shard (nullptr reverts all shards to the
  /// heuristic bootstrap mode). Callers that want health gating should
  /// go through install_candidate() instead. Throws
  /// std::invalid_argument, changing no shard, when the model's
  /// FeatureConfig is not config.features.
  void swap_model(std::shared_ptr<const core::LfoModel> model);
  bool has_model() const {
    return has_model_.load(std::memory_order_acquire);
  }

  /// Route a trained candidate through the in-process RolloutGuard
  /// (Cold-RL-style fallback, DESIGN.md): activation swaps the model in
  /// on every shard, rejection keeps the last-good model serving, and
  /// an exhausted rejection/drift budget clears the model — heuristic
  /// fallback — until a candidate re-qualifies. A model whose
  /// FeatureConfig is not config.features throws std::invalid_argument
  /// before the guard evaluates the candidate.
  core::RolloutVerdict install_candidate(
      const core::RolloutCandidate& candidate,
      std::shared_ptr<const core::LfoModel> model);
  core::RolloutState rollout_state() const {
    return static_cast<core::RolloutState>(
        rollout_state_.load(std::memory_order_acquire));
  }

  /// Shard-local stats merged on read (locks shards one at a time).
  cache::CacheStats stats() const;
  std::uint64_t bypassed() const;
  std::uint64_t used_bytes() const;
  std::uint64_t capacity() const { return config_.capacity; }
  /// Tracked feature histories and the bytes their stores hold
  /// (features::HistoryTable::bytes()), merged like used_bytes().
  std::uint64_t history_objects() const;
  std::uint64_t history_bytes() const;

  /// Drop every shard's cached objects and feature history.
  void clear();

 private:
  struct Shard {
    explicit Shard(std::uint64_t capacity,
                   const features::FeatureConfig& features, double cutoff)
        : cache(capacity, features, cutoff) {}
    mutable util::Mutex mu;
    core::LfoCache cache LFO_GUARDED_BY(mu);
  };

  ShardedCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable util::Mutex guard_mu_;
  core::RolloutGuard guard_ LFO_GUARDED_BY(guard_mu_);
  std::atomic<std::uint8_t> rollout_state_;
  std::atomic<bool> has_model_{false};
};

}  // namespace lfo::server

#endif  // LFO_SERVER_SHARDED_CACHE_HPP

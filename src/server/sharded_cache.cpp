#include "server/sharded_cache.hpp"

#include <stdexcept>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace lfo::server {

namespace {

/// Sum of `value(cache)` over the shards, each read under its lock.
template <typename Shards, typename Value>
std::uint64_t sum_shards(const Shards& shards, Value value) {
  std::uint64_t total = 0;
  for (const auto& shard : shards) {
    util::MutexLock lock(shard->mu);
    total += value(shard->cache);
  }
  return total;
}

/// One request on a shard's cache, whose lock the caller holds.
LFO_HOT_PATH AccessResult serve(core::LfoCache& cache,
                                const trace::Request& request) {
  const std::uint64_t expired_before = cache.stats().expired_hits;
  AccessResult result;
  result.hit = cache.access(request);
  result.expired = cache.stats().expired_hits != expired_before;
  return result;
}

}  // namespace

ShardedLfoCache::ShardedLfoCache(ShardedCacheConfig config)
    : config_(std::move(config)),
      guard_(config_.rollout),
      rollout_state_(static_cast<std::uint8_t>(core::RolloutState::kBootstrap)) {
  LFO_CHECK(config_.num_shards > 0) << "sharded cache needs >= 1 shard";
  LFO_CHECK(config_.capacity >= config_.num_shards)
      << "capacity " << config_.capacity << " cannot cover "
      << config_.num_shards << " shards";
  const std::uint64_t per_shard = config_.capacity / config_.num_shards;
  shards_.reserve(config_.num_shards);
  for (std::uint32_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        per_shard, config_.features, config_.cutoff));
  }
}

LFO_HOT_PATH std::uint32_t ShardedLfoCache::shard_of(
    trace::ObjectId object) const {
  if (shards_.size() == 1) return 0;
  // Seed-free, so dense generator ids spread evenly across shards
  // instead of striping, and every process routes an id alike.
  return static_cast<std::uint32_t>(util::mix64(object) % shards_.size());
}

LFO_HOT_PATH AccessResult ShardedLfoCache::access(
    const trace::Request& request) {
  Shard& shard = *shards_[shard_of(request.object)];
  // One uncontended striped lock per request is the concurrency design;
  // the guarded LfoCache path itself stays allocation-free.
  // lfo-lint: allow(hotpath): per-shard striped lock, no heap traffic
  util::MutexLock lock(shard.mu);
  return serve(shard.cache, request);
}

LFO_HOT_PATH void ShardedLfoCache::access_shard(
    std::uint32_t shard, std::span<const trace::Request> requests,
    std::span<const std::uint32_t> order, std::span<AccessResult> out) {
  LFO_DCHECK(out.size() == requests.size()) << "out must cover requests";
  Shard& s = *shards_[shard];
  // lfo-lint: allow(hotpath): one lock per group of a frame, no heap traffic
  util::MutexLock lock(s.mu);
  for (const std::uint32_t i : order) {
    LFO_DCHECK(shard_of(requests[i].object) == shard)
        << "request " << i << " grouped under the wrong shard";
    out[i] = serve(s.cache, requests[i]);
  }
}

void ShardedLfoCache::swap_model(
    std::shared_ptr<const core::LfoModel> model) {
  // One shard at a time: a swap must not stall every serving thread at
  // once, and per-request decisions never span shards, so a briefly
  // mixed-model window is benign (see class comment).
  for (auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    shard->cache.swap_model(model);
  }
  has_model_.store(model != nullptr, std::memory_order_release);
}

core::RolloutVerdict ShardedLfoCache::install_candidate(
    const core::RolloutCandidate& candidate,
    std::shared_ptr<const core::LfoModel> model) {
  // Refused before the guard sees the candidate, so a mismatched model
  // leaves the guard's state and every shard untouched.
  if (model && !(model->feature_config() == config_.features)) {
    throw std::invalid_argument(
        "ShardedLfoCache::install_candidate: the model's feature schema "
        "differs from the cache's");
  }
  util::MutexLock lock(guard_mu_);
  const auto verdict = guard_.evaluate(candidate);
  if (verdict.activate && model != nullptr) {
    swap_model(std::move(model));
  } else if (verdict.clear_model) {
    swap_model(nullptr);
  }
  rollout_state_.store(static_cast<std::uint8_t>(guard_.state()),
                       std::memory_order_release);
  return verdict;
}

cache::CacheStats ShardedLfoCache::stats() const {
  cache::CacheStats merged;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    const auto& s = shard->cache.stats();
    merged.requests += s.requests;
    merged.hits += s.hits;
    merged.bytes_requested += s.bytes_requested;
    merged.bytes_hit += s.bytes_hit;
    merged.expired_hits += s.expired_hits;
  }
  return merged;
}

std::uint64_t ShardedLfoCache::bypassed() const {
  return sum_shards(shards_,
                    [](const core::LfoCache& c) { return c.bypassed(); });
}

std::uint64_t ShardedLfoCache::used_bytes() const {
  return sum_shards(shards_,
                    [](const core::LfoCache& c) { return c.used_bytes(); });
}

std::uint64_t ShardedLfoCache::history_objects() const {
  return sum_shards(shards_, [](const core::LfoCache& c) {
    return c.history().tracked_objects();
  });
}

std::uint64_t ShardedLfoCache::history_bytes() const {
  return sum_shards(shards_, [](const core::LfoCache& c) {
    return c.history().bytes();
  });
}

void ShardedLfoCache::clear() {
  for (auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    shard->cache.clear();
  }
}

}  // namespace lfo::server

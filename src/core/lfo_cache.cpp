#include "core/lfo_cache.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace lfo::core {

LfoCache::LfoCache(std::uint64_t capacity,
                   features::FeatureConfig feature_config, double cutoff,
                   LfoPolicyOptions options)
    : cache::CachePolicy(capacity),
      extractor_(feature_config),
      cutoff_(cutoff),
      options_(options),
      row_buffer_(feature_config.dimension(), 0.0f) {}

bool LfoCache::contains(trace::ObjectId object) const {
  return entries_.contains(object);
}

bool LfoCache::expired(const trace::Request& request) const {
  const auto it = entries_.find(request.object);
  LFO_DCHECK(it != entries_.end())
      << "expired() consulted for an uncached object";
  return it != entries_.end() && clock() > it->second.expires_at;
}

void LfoCache::on_expired(const trace::Request& request) {
  const auto it = entries_.find(request.object);
  LFO_CHECK(it != entries_.end()) << "on_expired for an uncached object";
  sub_used(it->second.size);
  order_.erase(it->second.order_it);
  entries_.erase(it);
}

void LfoCache::clear() {
  entries_.clear();
  order_.clear();
  extractor_.reset();
  sub_used(used_bytes());
}

void LfoCache::swap_model(std::shared_ptr<const LfoModel> model) {
  if (model && !(model->feature_config() == extractor_.config())) {
    throw std::invalid_argument(
        "LfoCache::swap_model: the model's feature schema differs from "
        "the cache's");
  }
  model_ = std::move(model);
}

LFO_HOT_PATH double LfoCache::predict(const trace::Request& request) {
  if (!model_) return 0.5;  // bootstrap: behave like admit-all
  extractor_.extract(request, clock(), free_bytes(), row_buffer_, scratch_);
  return model_->predict(row_buffer_, scratch_);
}

LFO_HOT_PATH double LfoCache::rank_of(const trace::Request& request,
                         double likelihood) const {
  switch (options_.eviction) {
    case LfoPolicyOptions::EvictionRank::kLikelihood:
      return likelihood;
    case LfoPolicyOptions::EvictionRank::kLikelihoodPerByte:
      return likelihood / static_cast<double>(request.size);
    case LfoPolicyOptions::EvictionRank::kLru:
      return static_cast<double>(clock());  // larger = more recent
  }
  return likelihood;
}

LFO_HOT_PATH void LfoCache::update_rank(trace::ObjectId object, double rank) {
  auto& e = entries_[object];
  // Extract + reinsert reuses the multimap node, keeping the per-request
  // re-rank free of heap traffic (part of the zero-allocation hot path).
  auto node = order_.extract(e.order_it);
  node.key() = rank;
  e.likelihood = rank;
  // lfo-lint: allow(hotpath): node-handle reinsert, no heap traffic
  e.order_it = order_.insert(std::move(node));
}

LFO_HOT_PATH void LfoCache::on_hit(const trace::Request& request) {
  // Stale-serve contract: the access() template method must have routed
  // expired entries through on_expired/on_miss; reaching on_hit with a
  // dead deadline means stale bytes are about to be served as fresh.
  LFO_CHECK(clock() <= entries_.at(request.object).expires_at)
      << "LFO: serving expired object " << request.object;
  const bool lru_mode =
      options_.eviction == LfoPolicyOptions::EvictionRank::kLru;
  if (options_.rescore_on_hit || lru_mode) {
    const double p = lru_mode ? 0.0 : predict(request);
    if (!lru_mode && p < cutoff_) ++demoted_hits_;
    // Re-rank; the hit object may now be the eviction candidate (paper:
    // a hit can lead to the eviction of the hit object).
    update_rank(request.object, rank_of(request, p));
  }
  extractor_.observe(request, clock());
}

void LfoCache::on_miss(const trace::Request& request) {
  const double p = predict(request);
  extractor_.observe(request, clock());
  if (request.size > capacity()) return;
  if (p < cutoff_) {
    ++bypassed_;
    return;
  }
  LFO_COUNTER_INC("lfo_cache_admitted_total");
  while (free_bytes() < request.size) evict_one();
  const double rank = rank_of(request, p);
  // Freshness deadline fixed at admission: clock() is this request's
  // logical time, so a ttl of t keeps the copy fresh for the next t
  // requests. Re-admission after expiry lands here again and resets it.
  // A ttl past the end of the clock saturates: clock() + ttl would wrap
  // to a deadline already behind us.
  const std::uint64_t expires_at =
      !request.has_ttl() || request.ttl > kNeverExpires - clock()
          ? kNeverExpires
          : clock() + request.ttl;
  auto [it, inserted] = entries_.emplace(
      request.object, Entry{request.size, rank, order_.end(), expires_at});
  it->second.order_it = order_.emplace(rank, request.object);
  add_used(request.size);
}

void LfoCache::evict_one() {
  LFO_COUNTER_INC("lfo_cache_evictions_total");
  const auto victim = order_.begin();
  const auto object = victim->second;
  sub_used(entries_[object].size);
  entries_.erase(object);
  order_.erase(victim);
}

}  // namespace lfo::core

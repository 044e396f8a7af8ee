#include "core/lfo_cache.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace lfo::core {

LfoCache::LfoCache(std::uint64_t capacity,
                   features::FeatureConfig feature_config, double cutoff,
                   LfoPolicyOptions)
    : cache::CachePolicy(capacity),
      extractor_(feature_config),
      cutoff_(cutoff),
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
  erase(it->second);
}

void LfoCache::clear() {
  entries_.clear();
  newest_ = oldest_ = nullptr;
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
  return model_->predict(row_buffer_);
}

void LfoCache::link_newest(Entry& entry) {
  entry.newer = nullptr;
  entry.older = newest_;
  (newest_ ? newest_->newer : oldest_) = &entry;
  newest_ = &entry;
}

void LfoCache::unlink(Entry& entry) {
  (entry.newer ? entry.newer->older : newest_) = entry.older;
  (entry.older ? entry.older->newer : oldest_) = entry.newer;
}

void LfoCache::erase(Entry& entry) {
  sub_used(entry.size);
  unlink(entry);
  const trace::ObjectId object = entry.object;  // the key dies with it
  entries_.erase(object);
}

LFO_HOT_PATH void LfoCache::on_hit(const trace::Request& request) {
  auto& entry = entries_.at(request.object);
  // Stale-serve contract: the access() template method must have routed
  // expired entries through on_expired/on_miss; reaching on_hit with a
  // dead deadline means stale bytes are about to be served as fresh.
  LFO_CHECK(clock() <= entry.expires_at)
      << "LFO: serving expired object " << request.object;
  // Re-score on every hit (paper §2.4); the new likelihood ranks the
  // entry when it next reaches the eviction sample.
  entry.likelihood = predict(request);
  unlink(entry);
  link_newest(entry);
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
  // Freshness deadline fixed at admission: clock() is this request's
  // logical time, so a ttl of t keeps the copy fresh for the next t
  // requests. Re-admission after expiry lands here again and resets it.
  // A ttl past the end of the clock saturates: clock() + ttl would wrap
  // to a deadline already behind us.
  const std::uint64_t expires_at =
      !request.has_ttl() || request.ttl > kNeverExpires - clock()
          ? kNeverExpires
          : clock() + request.ttl;
  const auto it =
      entries_
          .emplace(request.object,
                   Entry{request.size, p, expires_at, request.object})
          .first;
  link_newest(it->second);
  add_used(request.size);
}

void LfoCache::evict_one() {
  LFO_COUNTER_INC("lfo_cache_evictions_total");
  LFO_DCHECK(oldest_ != nullptr) << "eviction from an empty cache";
  // The lowest stored likelihood among the kEvictionSample least
  // recent entries; strict < keeps ties with the less recent one, so
  // bootstrap (every entry at 0.5) evicts exactly in LRU order.
  Entry* victim = oldest_;
  Entry* candidate = oldest_->newer;
  for (std::size_t seen = 1; seen < kEvictionSample && candidate;
       ++seen, candidate = candidate->newer) {
    if (candidate->likelihood < victim->likelihood) victim = candidate;
  }
  erase(*victim);
}

}  // namespace lfo::core

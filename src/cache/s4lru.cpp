#include "cache/s4lru.hpp"

#include <algorithm>
#include <stdexcept>

namespace lfo::cache {

SegmentedLruCache::SegmentedLruCache(std::uint64_t capacity,
                                     std::uint32_t segments)
    : CachePolicy(capacity),
      num_segments_(segments),
      lists_(segments),
      segment_used_(segments, 0) {
  if (segments == 0) {
    throw std::invalid_argument("SegmentedLruCache: segments must be >= 1");
  }
}

std::string SegmentedLruCache::name() const {
  // Appends rather than operator+ chains: GCC 12 reports a -Wrestrict
  // false positive on `"S" + std::to_string(n) + "LRU"` in Release.
  std::string name = "S";
  name += std::to_string(num_segments_);
  name += "LRU";
  return name;
}

bool SegmentedLruCache::contains(trace::ObjectId object) const {
  return map_.contains(object);
}

void SegmentedLruCache::clear() {
  for (auto& l : lists_) l.clear();
  std::fill(segment_used_.begin(), segment_used_.end(), 0);
  map_.clear();
  sub_used(used_bytes());
}

std::uint64_t SegmentedLruCache::segment_capacity() const {
  return capacity() / num_segments_;
}

void SegmentedLruCache::on_hit(const trace::Request& request) {
  const auto it = map_.find(request.object);
  auto entry_it = it->second;
  const auto seg = entry_it->segment;
  const auto target = std::min(seg + 1, num_segments_ - 1);
  // Remove from the current segment and re-insert one level up.
  segment_used_[seg] -= entry_it->size;
  lists_[seg].erase(entry_it);
  map_.erase(it);
  sub_used(request.size);
  insert(target, request.object, request.size);
}

void SegmentedLruCache::on_miss(const trace::Request& request) {
  if (request.size > segment_capacity()) return;  // cannot fit in a segment
  insert(0, request.object, request.size);
}

void SegmentedLruCache::insert(std::uint32_t segment, trace::ObjectId object,
                               std::uint64_t size) {
  lists_[segment].push_front({object, size, segment});
  map_[object] = lists_[segment].begin();
  segment_used_[segment] += size;
  // Settle overflow first, then account the net byte change: the cascade
  // can transiently exceed the capacity, but after rebalancing every
  // segment is within its share, so the final total always fits.
  const std::uint64_t evicted = rebalance(segment);
  if (size >= evicted) {
    add_used(size - evicted);
  } else {
    sub_used(evicted - size);
  }
}

std::uint64_t SegmentedLruCache::rebalance(std::uint32_t segment) {
  std::uint64_t evicted_bytes = 0;
  // Demote overflow down the hierarchy; may cascade to eviction at 0.
  for (std::uint32_t s = segment + 1; s-- > 0;) {
    while (segment_used_[s] > segment_capacity()) {
      auto& list = lists_[s];
      const Entry victim = list.back();
      segment_used_[s] -= victim.size;
      map_.erase(victim.object);
      list.pop_back();
      if (s == 0) {
        evicted_bytes += victim.size;  // out of the cache entirely
        continue;
      }
      // Demote into segment s-1 (at its MRU end).
      lists_[s - 1].push_front({victim.object, victim.size, s - 1});
      map_[victim.object] = lists_[s - 1].begin();
      segment_used_[s - 1] += victim.size;
    }
  }
  return evicted_bytes;
}

}  // namespace lfo::cache

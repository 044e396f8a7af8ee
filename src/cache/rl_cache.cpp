#include "cache/rl_cache.hpp"

#include <algorithm>
#include <cmath>

namespace lfo::cache {

namespace {
constexpr double kLearningRate = 0.1;
constexpr double kDiscount = 0.95;
constexpr double kEpsilon = 0.1;  ///< exploration probability
/// Reward for a bypassed re-request.
constexpr double kBypassPenalty = 0.0;
/// Cost of admitting an object that is not reused.
constexpr double kOccupancyPenalty = 0.2;
}  // namespace

RlCache::RlCache(std::uint64_t capacity, std::uint64_t seed)
    : LruCache(capacity), rng_(seed) {}

std::uint32_t RlCache::state_of(const trace::Request& request) const {
  // Size bucket: log4 starting at 1 KiB.
  std::uint32_t sb = 0;
  std::uint64_t bound = 1024;
  while (sb + 1 < kSizeBuckets && request.size >= bound) {
    bound *= 4;
    ++sb;
  }
  // Recency bucket: log4 of requests since this object was last seen.
  std::uint32_t rb = kRecencyBuckets - 1;  // "never seen"
  const auto it = last_seen_.find(request.object);
  if (it != last_seen_.end()) {
    const std::uint64_t gap = clock() - it->second;
    rb = 0;
    std::uint64_t rbound = 16;
    while (rb + 1 < kRecencyBuckets - 1 && gap >= rbound) {
      rbound *= 4;
      ++rb;
    }
  }
  return sb * kRecencyBuckets + rb;
}

double& RlCache::q(std::uint32_t state, std::uint8_t action) {
  return q_table_[state * 2 + action];
}

void RlCache::reward_pending(trace::ObjectId object, bool hit,
                             std::uint32_t next_state) {
  const auto it = pending_.find(object);
  if (it == pending_.end()) return;
  const Pending p = it->second;
  pending_.erase(it);
  double reward;
  if (p.action == 1) {
    reward = hit ? 1.0 : -kOccupancyPenalty;
  } else {
    reward = kBypassPenalty;
  }
  const double best_next =
      std::max(q(next_state, 0), q(next_state, 1));
  double& qv = q(p.state, p.action);
  qv += kLearningRate * (reward + kDiscount * best_next - qv);
}

void RlCache::on_hit(const trace::Request& request) {
  const auto state = state_of(request);
  reward_pending(request.object, /*hit=*/true, state);
  last_seen_[request.object] = clock();
  LruCache::on_hit(request);
}

void RlCache::on_miss(const trace::Request& request) {
  const auto state = state_of(request);
  // The pending admission (if any) did not produce a hit before this
  // re-request/eviction cycle.
  reward_pending(request.object, /*hit=*/false, state);
  last_seen_[request.object] = clock();

  std::uint8_t action;
  if (rng_.bernoulli(kEpsilon)) {
    action = static_cast<std::uint8_t>(rng_.uniform(2));
  } else {
    action = q(state, 1) >= q(state, 0) ? 1 : 0;
  }
  pending_[request.object] = {state, action};
  if (action == 1) LruCache::on_miss(request);
}

double RlCache::q_spread() const {
  double spread = 0.0;
  for (std::uint32_t s = 0; s < kStates; ++s) {
    spread += std::abs(q_table_[s * 2 + 1] - q_table_[s * 2]);
  }
  return spread / kStates;
}

}  // namespace lfo::cache

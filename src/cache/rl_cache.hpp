#ifndef LFO_CACHE_RL_CACHE_HPP
#define LFO_CACHE_RL_CACHE_HPP

#include <array>
#include <unordered_map>

#include "cache/lru.hpp"
#include "util/rng.hpp"

namespace lfo::cache {

/// Model-free reinforcement-learning cache admission (the "RLC" baseline
/// of the paper's Fig 1, after Lecuyer et al., HotNets 2017).
///
/// A tabular Q-learner decides admit/bypass over a coarse state space
/// (object-size bucket x recency bucket). The reward for an admission
/// arrives only at the object's *next* request — the delayed-reward
/// problem the paper identifies as the root cause of RL's struggles in
/// caching. Eviction is LRU. The agent is intentionally faithful to the
/// model-free setup: no future knowledge, epsilon-greedy exploration.
class RlCache : public LruCache {
 public:
  explicit RlCache(std::uint64_t capacity, std::uint64_t seed = 1);

  std::string name() const override { return "RLC"; }

  /// Mean Q-value spread (diagnostics for convergence experiments).
  double q_spread() const;

 protected:
  void on_hit(const trace::Request& request) override;
  void on_miss(const trace::Request& request) override;

 private:
  static constexpr std::uint32_t kSizeBuckets = 8;
  static constexpr std::uint32_t kRecencyBuckets = 8;
  static constexpr std::uint32_t kStates = kSizeBuckets * kRecencyBuckets;

  struct Pending {
    std::uint32_t state;
    std::uint8_t action;  // 1 = admit, 0 = bypass
  };

  std::uint32_t state_of(const trace::Request& request) const;
  void reward_pending(trace::ObjectId object, bool hit,
                      std::uint32_t next_state);
  double& q(std::uint32_t state, std::uint8_t action);

  util::Rng rng_;
  std::array<double, kStates * 2> q_table_{};
  std::unordered_map<trace::ObjectId, Pending> pending_;
  std::unordered_map<trace::ObjectId, std::uint64_t> last_seen_;
};

}  // namespace lfo::cache

#endif  // LFO_CACHE_RL_CACHE_HPP

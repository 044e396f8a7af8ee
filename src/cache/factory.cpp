#include "cache/factory.hpp"

#include <stdexcept>

#include "cache/adaptsize.hpp"
#include "cache/arc.hpp"
#include "cache/bloom_admission.hpp"
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
#include "cache/tiered.hpp"
#include "cache/tinylfu.hpp"
#include "util/strings.hpp"

namespace lfo::cache {

CachePolicyPtr make_policy(const std::string& name, std::uint64_t capacity,
                           std::uint64_t seed) {
  if (name == "Random") return std::make_unique<RandomCache>(capacity, seed);
  if (name == "FIFO") return std::make_unique<FifoCache>(capacity);
  if (name == "ARC") return std::make_unique<ArcCache>(capacity);
  if (name == "LRU") return std::make_unique<LruCache>(capacity);
  if (name.rfind("LRU-", 0) == 0) {
    const auto k = util::parse_uint(std::string_view(name).substr(4));
    if (k && *k >= 1) {
      return std::make_unique<LruKCache>(capacity,
                                         static_cast<std::uint32_t>(*k));
    }
  }
  if (name == "LFU") return std::make_unique<LfudaCache>(capacity, false);
  if (name == "LFUDA") return std::make_unique<LfudaCache>(capacity, true);
  if (name.size() > 4 && name.front() == 'S' &&
      name.substr(name.size() - 3) == "LRU") {
    const auto s = util::parse_uint(
        std::string_view(name).substr(1, name.size() - 4));
    if (s && *s >= 1) {
      return std::make_unique<SegmentedLruCache>(
          capacity, static_cast<std::uint32_t>(*s));
    }
  }
  if (name == "GDS") {
    return std::make_unique<GreedyDualCache>(capacity,
                                             GreedyDualVariant::kGds);
  }
  if (name == "GDSF") {
    return std::make_unique<GreedyDualCache>(capacity,
                                             GreedyDualVariant::kGdsf);
  }
  if (name == "GD-Wheel") return std::make_unique<GdWheelCache>(capacity);
  if (name == "AdaptSize") {
    return std::make_unique<AdaptSizeCache>(capacity, 1 << 16, seed);
  }
  if (name == "Hyperbolic") {
    return std::make_unique<HyperbolicCache>(capacity, 64, true, seed);
  }
  if (name == "LHD") return std::make_unique<LhdCache>(capacity, 64, seed);
  if (name == "TinyLFU") return std::make_unique<TinyLfuCache>(capacity);
  if (name == "SecondHit") return std::make_unique<SecondHitCache>(capacity);
  if (name == "Tiered") {
    // 1:7 RAM:disk split, the common CDN-server shape.
    const auto fast = std::max<std::uint64_t>(1, capacity / 8);
    return std::make_unique<TieredCache>(fast, capacity - fast);
  }
  if (name == "RLC") {
    return std::make_unique<RlCache>(capacity, seed);
  }
  if (name == "Infinite") return std::make_unique<InfiniteCache>(capacity);
  throw std::invalid_argument("make_policy: unknown policy '" + name + "'");
}

std::vector<std::string> policy_names() {
  return {"Random",    "FIFO",       "ARC",       "LRU",     "LRU-2",   "LFU",
          "LFUDA",     "S4LRU",      "GDS",     "GDSF",    "GD-Wheel",
          "AdaptSize", "Hyperbolic", "LHD",     "TinyLFU", "SecondHit",
          "Tiered",    "RLC",        "Infinite"};
}

}  // namespace lfo::cache

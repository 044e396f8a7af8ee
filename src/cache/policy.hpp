#ifndef LFO_CACHE_POLICY_HPP
#define LFO_CACHE_POLICY_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "trace/request.hpp"

namespace lfo::cache {

/// Hit/miss accounting shared by every policy.
struct CacheStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t bytes_hit = 0;
  /// Requests that found the object cached but stale (Request::ttl
  /// elapsed). Counted as misses in requests/hits; tracked separately so
  /// freshness pressure is visible in results.
  std::uint64_t expired_hits = 0;

  double ohr() const {
    return requests ? static_cast<double>(hits) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  double bhr() const {
    return bytes_requested ? static_cast<double>(bytes_hit) /
                                 static_cast<double>(bytes_requested)
                           : 0.0;
  }
  void reset() { *this = CacheStats{}; }
};

/// Base class of every caching policy in the simulator.
///
/// The framework calls access() per request; the template method updates
/// statistics and the logical clock, then dispatches to the policy's
/// on_hit/on_miss. A policy admits on miss at its own discretion and is
/// responsible for evicting enough bytes first; the base class enforces
/// the capacity invariant in debug builds.
class CachePolicy {
 public:
  explicit CachePolicy(std::uint64_t capacity);
  virtual ~CachePolicy() = default;

  CachePolicy(const CachePolicy&) = delete;
  CachePolicy& operator=(const CachePolicy&) = delete;

  virtual std::string name() const = 0;

  /// Process one request. Returns true on a cache hit.
  bool access(const trace::Request& request);

  /// Is the object currently cached?
  virtual bool contains(trace::ObjectId object) const = 0;

  /// Is the cached copy of this request's object stale? Only consulted
  /// when contains() is true. Freshness-blind policies keep the default
  /// (never stale) and serve expired bytes, exactly like a CDN cache with
  /// no TTL handling; freshness-aware policies override (LfoCache keys
  /// this off Request::ttl recorded at admission).
  virtual bool expired(const trace::Request& /*request*/) const {
    return false;
  }

  /// Drop all cached objects and policy metadata (not the statistics).
  virtual void clear() = 0;

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t free_bytes() const { return capacity_ - used_; }
  /// Logical time = number of requests processed so far.
  std::uint64_t clock() const { return clock_; }

 protected:
  /// The object of `request` is cached; update metadata. Must keep the
  /// hit object resident (sim::AuditedPolicy checks this).
  virtual void on_hit(const trace::Request& request) = 0;
  /// The object is absent; optionally admit (evicting to make room first).
  virtual void on_miss(const trace::Request& request) = 0;
  /// The object is cached but expired() returned true. The policy must
  /// drop the stale copy (the base class then routes the request through
  /// on_miss, which may re-admit). Default is a no-op for policies that
  /// never report expiry.
  virtual void on_expired(const trace::Request& /*request*/) {}

  /// Byte accounting helpers for derived classes.
  void add_used(std::uint64_t bytes);
  void sub_used(std::uint64_t bytes);

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t clock_ = 0;
  CacheStats stats_;
};

using CachePolicyPtr = std::unique_ptr<CachePolicy>;

}  // namespace lfo::cache

#endif  // LFO_CACHE_POLICY_HPP

#ifndef LFO_SIM_AUDITOR_HPP
#define LFO_SIM_AUDITOR_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/policy.hpp"

namespace lfo::sim {

/// What the auditor is allowed to assume about the wrapped policy.
struct AuditConfig {
  /// InfiniteCache deliberately skips add_used/sub_used accounting; set
  /// false there so the byte-accounting cross-checks are skipped.
  bool check_byte_accounting = true;
};

/// Contract-audit decorator: wraps any CachePolicy from the factory and
/// cross-checks every access() against an independent shadow model. The
/// shadow tracks admissions and observed evictions purely through the
/// public interface, so it cannot share a bug with the policy's internal
/// accounting. Violations abort via LFO_CHECK with the faulting state.
///
/// Audited invariants, per access:
///  - used_bytes() never exceeds capacity()
///  - the returned hit flag matches contains() queried before the access
///  - stats advance by exactly this request (requests/hits/bytes_requested/
///    bytes_hit monotone and consistent with the request size)
///  - a hit can only happen on an object the shadow saw admitted
///  - admissions happen only on the miss path and grow used_bytes() by at
///    most the admitted object's size (evictions may shrink it)
///  - the hit path never grows used_bytes() and never evicts the hit
///    object
class AuditedPolicy final : public cache::CachePolicy {
 public:
  explicit AuditedPolicy(cache::CachePolicyPtr inner, AuditConfig config = {});

  std::string name() const override;
  bool contains(trace::ObjectId object) const override;
  void clear() override;

  const cache::CachePolicy& inner() const { return *inner_; }
  /// Full shadow reconciliation: probes EVERY shadow entry against
  /// contains() (not a per-access budget's worth) and re-checks the
  /// byte bounds.
  /// Intended for lifecycle boundaries — model swap, fallback to the
  /// heuristic, recovery — where an incremental per-request audit could
  /// let a transition bug hide behind the round-robin probe lag.
  void audit_full();
  /// Evictions the shadow has observed (via probes and request misses).
  std::uint64_t observed_evictions() const { return observed_evictions_; }
  /// Objects the shadow currently believes resident (an over-estimate:
  /// evictions are only noticed when a probe or a request looks).
  std::size_t shadow_objects() const { return shadow_.size(); }

 protected:
  void on_hit(const trace::Request& request) override;
  void on_miss(const trace::Request& request) override;

 private:
  void run_audited(const trace::Request& request, bool expected_hit);
  void reconcile_probes();
  void mirror_used_bytes();

  cache::CachePolicyPtr inner_;
  AuditConfig config_;
  /// object -> size at the last observation of residency.
  std::unordered_map<trace::ObjectId, std::uint64_t> shadow_;
  /// Round-robin snapshot of shadow keys pending a residency probe.
  std::vector<trace::ObjectId> probe_cycle_;
  std::uint64_t observed_evictions_ = 0;
};

/// Convenience: build a factory policy already wrapped in an auditor, with
/// the per-policy audit assumptions (e.g. InfiniteCache's accounting
/// opt-out) filled in.
std::unique_ptr<AuditedPolicy> make_audited_policy(const std::string& name,
                                                   std::uint64_t capacity,
                                                   std::uint64_t seed = 1);

}  // namespace lfo::sim

#endif  // LFO_SIM_AUDITOR_HPP

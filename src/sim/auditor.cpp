#include "sim/auditor.hpp"

#include <utility>

#include "cache/factory.hpp"
#include "util/check.hpp"

namespace lfo::sim {

namespace {
/// Shadow entries reconciled against contains() per access (bounds the
/// audit overhead per request).
constexpr std::size_t kProbeBudget = 8;
}  // namespace

AuditedPolicy::AuditedPolicy(cache::CachePolicyPtr inner, AuditConfig config)
    : cache::CachePolicy(inner->capacity()),
      inner_(std::move(inner)),
      config_(config) {
  LFO_CHECK_EQ(inner_->stats().requests, 0U)
      << "AuditedPolicy must wrap a fresh policy (stats already advanced)";
}

std::string AuditedPolicy::name() const {
  return "Audited(" + inner_->name() + ")";
}

bool AuditedPolicy::contains(trace::ObjectId object) const {
  return inner_->contains(object);
}

void AuditedPolicy::clear() {
  inner_->clear();
  if (config_.check_byte_accounting) {
    LFO_CHECK_EQ(inner_->used_bytes(), 0U)
        << inner_->name() << ": clear() left bytes accounted";
  }
  shadow_.clear();
  probe_cycle_.clear();
  mirror_used_bytes();
}

void AuditedPolicy::audit_full() {
  // Sweep the whole shadow at once instead of kProbeBudget entries per
  // access. An object the shadow saw admitted may have been evicted since
  // (that is reconciled, not a violation), but one the inner policy still
  // reports resident must match the size bound we recorded.
  std::vector<trace::ObjectId> gone;
  std::uint64_t resident_bytes = 0;
  for (const auto& [object, size] : shadow_) {
    if (inner_->contains(object)) {
      resident_bytes += size;
    } else {
      gone.push_back(object);
    }
  }
  for (const auto object : gone) {
    shadow_.erase(object);
    ++observed_evictions_;
  }
  probe_cycle_.clear();  // snapshot is stale after the sweep
  if (config_.check_byte_accounting) {
    LFO_CHECK_LE(inner_->used_bytes(), inner_->capacity())
        << inner_->name() << ": over capacity at full audit";
    LFO_CHECK_GE(inner_->used_bytes(), resident_bytes)
        << inner_->name() << ": used bytes below the sum of resident "
        << "shadow entries (" << shadow_.size() << " objects)";
  }
  mirror_used_bytes();
}

void AuditedPolicy::on_hit(const trace::Request& request) {
  run_audited(request, /*expected_hit=*/true);
}

void AuditedPolicy::on_miss(const trace::Request& request) {
  run_audited(request, /*expected_hit=*/false);
}

void AuditedPolicy::run_audited(const trace::Request& request,
                                bool expected_hit) {
  const auto pre_stats = inner_->stats();
  const auto pre_used = inner_->used_bytes();

  const bool hit = inner_->access(request);

  // contains() must be stable: the base class of this wrapper queried it
  // to pick the hit/miss path, and the inner policy queried it again.
  LFO_CHECK_EQ(hit, expected_hit)
      << inner_->name() << ": contains() disagreed with access() for object "
      << request.object;

  // Stats advance by exactly this request.
  const auto& st = inner_->stats();
  LFO_CHECK_EQ(st.requests, pre_stats.requests + 1) << inner_->name();
  LFO_CHECK_EQ(st.hits, pre_stats.hits + (hit ? 1 : 0)) << inner_->name();
  LFO_CHECK_EQ(st.bytes_requested, pre_stats.bytes_requested + request.size)
      << inner_->name();
  LFO_CHECK_EQ(st.bytes_hit, pre_stats.bytes_hit + (hit ? request.size : 0))
      << inner_->name() << ": bytes_hit inconsistent with request size "
      << request.size;

  const auto post_used = inner_->used_bytes();
  LFO_CHECK_LE(post_used, inner_->capacity())
      << inner_->name() << " exceeded capacity (object " << request.object
      << ", size " << request.size << ")";

  const bool post_resident = inner_->contains(request.object);
  if (hit) {
    // A hit is only possible on an object the shadow saw admitted on an
    // earlier miss; anything else means contains() or the residency index
    // invented an object.
    LFO_CHECK(shadow_.contains(request.object))
        << inner_->name() << ": hit on object " << request.object
        << " that was never admitted";
    if (config_.check_byte_accounting) {
      LFO_CHECK_LE(post_used, pre_used)
          << inner_->name() << ": hit path grew used bytes";
    }
    LFO_CHECK(post_resident)
        << inner_->name() << ": evicted object " << request.object
        << " on its own hit path";
    shadow_[request.object] = request.size;
  } else if (post_resident) {
    // Admission: only the requested object may enter, so used bytes grow
    // by at most its size (concurrent evictions may shrink the delta).
    if (config_.check_byte_accounting) {
      LFO_CHECK_GE(post_used, request.size)
          << inner_->name() << ": admitted object " << request.object
          << " not reflected in used bytes";
      LFO_CHECK_LE(post_used, pre_used + request.size)
          << inner_->name() << ": miss path admitted more than object "
          << request.object;
    }
    shadow_[request.object] = request.size;
  } else {
    // Declined miss: evictions only, never growth.
    if (config_.check_byte_accounting) {
      LFO_CHECK_LE(post_used, pre_used)
          << inner_->name() << ": declined miss grew used bytes";
    }
    // The shadow thought the object was resident: the eviction happened
    // on some earlier access without us looking. Reconcile.
    if (shadow_.erase(request.object) > 0) ++observed_evictions_;
  }

  reconcile_probes();
  mirror_used_bytes();
}

void AuditedPolicy::reconcile_probes() {
  if (shadow_.empty()) {
    probe_cycle_.clear();
    return;
  }
  if (probe_cycle_.empty()) {
    probe_cycle_.reserve(shadow_.size());
    for (const auto& [object, size] : shadow_) probe_cycle_.push_back(object);
  }
  for (std::size_t i = 0; i < kProbeBudget && !probe_cycle_.empty(); ++i) {
    const auto object = probe_cycle_.back();
    probe_cycle_.pop_back();
    const auto it = shadow_.find(object);
    if (it == shadow_.end()) continue;  // reconciled since the snapshot
    if (!inner_->contains(object)) {
      shadow_.erase(it);
      ++observed_evictions_;
    }
  }
}

void AuditedPolicy::mirror_used_bytes() {
  // Mirror the inner byte accounting into this wrapper so used_bytes()
  // reports truthfully and the base-class capacity contract also guards
  // the mirrored value.
  const auto inner_used = inner_->used_bytes();
  const auto mine = used_bytes();
  if (inner_used > mine) {
    add_used(inner_used - mine);
  } else if (mine > inner_used) {
    sub_used(mine - inner_used);
  }
}

std::unique_ptr<AuditedPolicy> make_audited_policy(const std::string& name,
                                                   std::uint64_t capacity,
                                                   std::uint64_t seed) {
  AuditConfig config;
  // Every factory policy does byte accounting except the infinite
  // reference, which deliberately reports zero used bytes.
  config.check_byte_accounting = name != "Infinite";
  return std::make_unique<AuditedPolicy>(
      cache::make_policy(name, capacity, seed), config);
}

}  // namespace lfo::sim

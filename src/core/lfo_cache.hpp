#ifndef LFO_CORE_LFO_CACHE_HPP
#define LFO_CORE_LFO_CACHE_HPP

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/policy.hpp"
#include "core/lfo_model.hpp"
#include "features/features.hpp"

namespace lfo::core {

/// The LFO caching policy (paper §2.4):
///  - on every request, the predictor estimates the likelihood that OPT
///    would cache the object;
///  - on a miss, the object is admitted iff likelihood >= cutoff;
///  - cached objects are ranked by their latest predicted likelihood, and
///    eviction removes the lowest-ranked one;
///  - the likelihood is re-evaluated on every access, so a cache hit can
///    demote — and later evict — the very object that was hit (which
///    matches OPT's behaviour, as the paper notes).
///
/// Until a model is installed (swap_model), the policy runs in a
/// configurable bootstrap mode: admit-all LRU-by-likelihood=0.5, so the
/// windowed pipeline has sane behaviour during its first window.
///
/// The paper's §5 calls the translation of a ranking into a caching
/// policy "policy design" and flags it as the key open question;
/// LfoPolicyOptions exposes the design axes so they can be ablated
/// (bench_ablation_policy_design).
struct LfoPolicyOptions {
  enum class EvictionRank {
    kLikelihood,         ///< evict min predicted likelihood (paper §2.4)
    kLikelihoodPerByte,  ///< evict min likelihood/size (byte-aware ranking)
    kLru,                ///< ignore the ranking for eviction; admission-only
  };
  EvictionRank eviction = EvictionRank::kLikelihood;
  /// Re-predict on every hit, allowing a hit to demote the hit object
  /// (paper §2.4). When false the admission-time score is kept.
  bool rescore_on_hit = true;
};

class LfoCache : public cache::CachePolicy {
 public:
  LfoCache(std::uint64_t capacity, features::FeatureConfig feature_config,
           double cutoff = 0.5, LfoPolicyOptions options = {});

  std::string name() const override { return "LFO"; }
  bool contains(trace::ObjectId object) const override;
  /// Freshness (Request::ttl): an entry admitted at logical clock c with
  /// ttl t is stale once clock() > c + t. Hits do not refresh the
  /// deadline — only re-admission after expiry does, matching CDN
  /// origin-revalidation semantics.
  bool expired(const trace::Request& request) const override;
  void clear() override;

  /// Install a newly trained model (paper Fig 2: the policy trained on
  /// window t serves window t+1). The history table is retained. Must be
  /// called from the serving thread (the windowed pipelines do, at
  /// window boundaries). Cached entries keep the rank the previous model
  /// gave them until their next access. Passing nullptr reverts to the
  /// heuristic bootstrap mode (admit-all, likelihood 0.5) — the rollout
  /// guard's fallback path; cached entries and the feature history
  /// survive the transition. Throws std::invalid_argument, changing
  /// nothing, when the model's FeatureConfig differs from the cache's.
  void swap_model(std::shared_ptr<const LfoModel> model);
  bool has_model() const { return model_ != nullptr; }
  /// The currently serving model (null during bootstrap).
  std::shared_ptr<const LfoModel> model() const { return model_; }

  double cutoff() const { return cutoff_; }
  void set_cutoff(double cutoff) { cutoff_ = cutoff; }

  /// The per-object request history the gap features come from.
  const features::HistoryTable& history() const {
    return extractor_.history();
  }

  /// Number of admissions declined by the predictor (diagnostics).
  std::uint64_t bypassed() const { return bypassed_; }
  /// Number of hits whose re-evaluation dropped the object below the
  /// cutoff (candidates for the hit-then-evict behaviour).
  std::uint64_t demoted_hits() const { return demoted_hits_; }

 protected:
  void on_hit(const trace::Request& request) override;
  void on_miss(const trace::Request& request) override;
  /// Drop the stale entry so the request re-enters through on_miss and
  /// the predictor decides re-admission with a fresh deadline.
  void on_expired(const trace::Request& request) override;

 private:
  static constexpr std::uint64_t kNeverExpires =
      std::numeric_limits<std::uint64_t>::max();

  struct Entry {
    std::uint64_t size;
    double likelihood;
    std::multimap<double, trace::ObjectId>::iterator order_it;
    /// Logical clock after which the cached copy is stale; kNeverExpires
    /// for ttl-free objects. Set at admission, never refreshed by hits.
    std::uint64_t expires_at;
  };

  /// Predict the caching likelihood for this request given current state.
  double predict(const trace::Request& request);
  /// Eviction key under the configured ranking.
  double rank_of(const trace::Request& request, double likelihood) const;
  void update_rank(trace::ObjectId object, double rank);
  void evict_one();

  std::shared_ptr<const LfoModel> model_;
  features::FeatureExtractor extractor_;
  double cutoff_;
  LfoPolicyOptions options_;
  std::vector<float> row_buffer_;
  features::FeatureScratch scratch_;
  std::unordered_map<trace::ObjectId, Entry> entries_;
  std::multimap<double, trace::ObjectId> order_;  // likelihood ascending
  std::uint64_t bypassed_ = 0;
  std::uint64_t demoted_hits_ = 0;
};

}  // namespace lfo::core

#endif  // LFO_CORE_LFO_CACHE_HPP

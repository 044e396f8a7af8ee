#ifndef LFO_CORE_LFO_CACHE_HPP
#define LFO_CORE_LFO_CACHE_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/policy.hpp"
#include "core/lfo_model.hpp"
#include "features/features.hpp"

namespace lfo::core {

/// The LFO caching policy (paper §2.4, with sampled eviction):
///  - on a miss, the predictor estimates the likelihood that OPT would
///    cache the object, and the object is admitted iff likelihood >=
///    cutoff;
///  - a hit re-predicts the likelihood, stores it in the entry and moves
///    the entry to the head of an LRU order;
///  - eviction scans the kEvictionSample least-recent entries and removes
///    the one with the lowest stored likelihood, ties going to the least
///    recent. This is "ML over a heuristic" (HALP, arXiv 2301.11886): the
///    model re-ranks the few candidates LRU offers. The paper evicts the
///    global minimum; DESIGN.md records why this policy replaced that
///    one.
///
/// Until a model is installed (swap_model), every object is admitted with
/// likelihood 0.5, so eviction is exactly LRU during the first window.
struct LfoPolicyOptions {};  // kept only for lfo_bench; no policy options

class LfoCache : public cache::CachePolicy {
 public:
  /// Entries scanned per eviction, least recent first.
  static constexpr std::size_t kEvictionSample = 64;

  /// The LfoPolicyOptions parameter is ignored; it is kept only for
  /// lfo_bench.
  LfoCache(std::uint64_t capacity, features::FeatureConfig feature_config,
           double cutoff = 0.5, LfoPolicyOptions = {});

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
  /// window boundaries). Cached entries keep the likelihood they were
  /// last scored with (at admission or their latest hit) until they are
  /// hit again or evicted. Passing nullptr reverts to the
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
    /// The likelihood from admission or the latest hit (0.5 in
    /// bootstrap).
    double likelihood;
    /// Logical clock after which the cached copy is stale; kNeverExpires
    /// for ttl-free objects. Set at admission, never refreshed by hits.
    std::uint64_t expires_at;
    trace::ObjectId object;
    /// Intrusive LRU links (unordered_map nodes never move).
    Entry* newer = nullptr;
    Entry* older = nullptr;
  };

  /// Predict the caching likelihood for this request given current state.
  double predict(const trace::Request& request);
  void link_newest(Entry& entry);
  void unlink(Entry& entry);
  void erase(Entry& entry);
  void evict_one();

  std::shared_ptr<const LfoModel> model_;
  features::FeatureExtractor extractor_;
  double cutoff_;
  std::vector<float> row_buffer_;
  features::FeatureScratch scratch_;
  std::unordered_map<trace::ObjectId, Entry> entries_;
  Entry* newest_ = nullptr;
  Entry* oldest_ = nullptr;
  std::uint64_t bypassed_ = 0;
};

}  // namespace lfo::core

#endif  // LFO_CORE_LFO_CACHE_HPP

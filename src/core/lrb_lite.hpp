#ifndef LFO_CORE_LRB_LITE_HPP
#define LFO_CORE_LRB_LITE_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/policy.hpp"
#include "features/features.hpp"
#include "gbdt/gbdt.hpp"
#include "util/rng.hpp"

namespace lfo::core {

/// LRB-lite — a compact, self-contained reimplementation of the
/// "Learning Relaxed Belady" direction this paper seeded (Song et al.,
/// NSDI 2020), built from the same substrates as LFO.
///
/// Where LFO *imitates the flow-based OPT's admission decision*, LRB-lite
/// *regresses the time to an object's next request* from the same online
/// features and evicts, among a random sample of cached objects, the one
/// whose predicted next use lies farthest in the future — the "relaxed
/// Belady" rule: every object beyond the Belady boundary is an equally
/// good victim.
///
/// Training is fully online: when an object is re-requested, the feature
/// vector captured at its previous request gets the observed
/// log2(reuse distance) as its regression label; objects not re-seen
/// within `label_horizon` requests are labelled as "beyond the boundary"
/// (log2(2 * horizon)). The model is retrained every `retrain_interval`
/// requests on the accumulated samples.
struct LrbConfig {
  features::FeatureConfig features;  ///< same schema as LFO (§2.2)
  gbdt::Params gbdt;                 ///< objective forced to regression
  std::uint64_t retrain_interval = 50000;
  std::uint64_t label_horizon = 50000;
  std::size_t min_train_samples = 4096;

  LrbConfig() {
    // LRB's features do not include the cache's free bytes, and the
    // regression objective replaces the classifier.
    features.include_free_bytes = false;
    gbdt.objective = gbdt::Objective::kRegressionL2;
    gbdt.num_iterations = 30;
  }
};

class LrbCache : public cache::CachePolicy {
 public:
  LrbCache(std::uint64_t capacity, LrbConfig config = {},
           std::uint64_t seed = 1);

  std::string name() const override { return "LRB-lite"; }
  bool contains(trace::ObjectId object) const override;
  void clear() override;

  bool has_model() const { return model_ != nullptr; }
  std::size_t retrain_count() const { return retrains_; }

 protected:
  void on_hit(const trace::Request& request) override;
  void on_miss(const trace::Request& request) override;

 private:
  struct Slot {
    trace::ObjectId object;
    std::uint64_t size;
    double cost;
    std::uint64_t last_access;
  };
  struct Pending {
    trace::ObjectId object;
    std::uint64_t time;
    std::uint64_t seq;
  };

  /// Record the request for training: close out the previous pending
  /// sample of this object (label = observed log2 gap) and open a new one.
  void record_sample(const trace::Request& request,
                     const std::vector<float>& row);
  /// Expire pending samples older than the horizon with the
  /// beyond-boundary label.
  void expire_pending();
  void maybe_retrain();
  /// Predicted absolute time of the object's next request, evaluated on
  /// the object's *current* features (as LRB does at eviction time).
  double predicted_next_use(const Slot& slot);
  void evict_one();

  LrbConfig config_;
  util::Rng rng_;
  features::FeatureExtractor extractor_;
  std::unique_ptr<gbdt::Model> model_;
  std::size_t retrains_ = 0;

  // Cache contents (swap-with-back vector for O(1) sampling).
  std::vector<Slot> slots_;
  std::unordered_map<trace::ObjectId, std::size_t> index_;

  // Online training state.
  struct OpenSample {
    std::vector<float> row;
    std::uint64_t time;
    std::uint64_t seq;
  };
  std::unordered_map<trace::ObjectId, OpenSample> open_;
  std::deque<Pending> pending_fifo_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::vector<float>> train_rows_;
  std::vector<float> train_labels_;
  std::uint64_t next_retrain_;
  std::vector<float> row_buffer_;
  features::FeatureScratch scratch_;
};

}  // namespace lfo::core

#endif  // LFO_CORE_LRB_LITE_HPP

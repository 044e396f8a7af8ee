#ifndef LFO_FEATURES_FEATURES_HPP
#define LFO_FEATURES_FEATURES_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/request.hpp"

namespace lfo::features {

/// Configuration of LFO's online feature vector (paper §2.2):
///   [object size, most recent retrieval cost, free cache bytes,
///    gap_1 ... gap_num_gaps]
/// where gap_1 is the time since the previous request to the object and
/// gap_k (k >= 2) is the time between the (k-1)-th and k-th most recent
/// requests. Gaps (except gap_1) are shift invariant, which the paper
/// highlights as important for robustness.
struct FeatureConfig {
  std::uint32_t num_gaps = 50;
  bool include_size = true;
  bool include_cost = true;
  bool include_free_bytes = true;
  /// Ablation (paper §3, Fig 8 discussion): keep only gaps 1, 2, 4, 8, ...
  /// when true, thinning the feature space.
  bool thin_gaps = false;
  /// Value used when an object has fewer recorded gaps than num_gaps.
  float missing_gap_value = 1e8f;

  /// Number of features in the emitted vector.
  std::size_t dimension() const;
  /// Index of the first gap feature within the vector.
  std::size_t gap_offset() const {
    return (include_size ? 1 : 0) + (include_cost ? 1 : 0) +
           (include_free_bytes ? 1 : 0);
  }
  /// Human-readable name per feature index ("size", "cost", "free",
  /// "gap1", ...), for the Fig 8 importance report.
  std::vector<std::string> names() const;
  /// The gap indices (1-based) actually emitted, honoring thin_gaps.
  std::vector<std::uint32_t> gap_indices() const;
};

/// Tracks per-object request-time history, providing the gap features.
/// The representation is dense: a vector indexed by object id, so memory
/// grows with the largest id seen, not with the number of distinct
/// objects; only recorded ids get a ring buffer.
class HistoryTable {
 public:
  explicit HistoryTable(std::uint32_t num_gaps = 50);

  /// Record that `object` was requested at logical time `time` (a request
  /// counter). Call after extracting features for the request. Throws
  /// std::length_error for an id at or above the table's max_size(); the
  /// existing histories are left untouched.
  void record(trace::ObjectId object, std::uint64_t time);

  /// Number of recorded past requests for this object (capped).
  std::uint32_t depth(trace::ObjectId object) const;

  /// Fill `out` (size num_gaps) with gap_1..gap_num_gaps relative to
  /// `now`; missing entries get `missing_value`.
  void gaps(trace::ObjectId object, std::uint64_t now,
            std::span<float> out, float missing_value) const;

  /// Drop all state (e.g. between experiment repetitions).
  void clear();

  /// Number of tracked objects (for memory accounting).
  std::size_t tracked_objects() const;

  /// Approximate bytes used per tracked object (the paper quotes 208 B
  /// for the naive representation).
  std::size_t bytes_per_object() const;

 private:
  struct ObjectHistory {
    // Circular buffer of the most recent request times, newest last.
    std::vector<std::uint64_t> times;
    std::uint32_t head = 0;   // index of oldest entry
    std::uint32_t count = 0;  // valid entries
  };

  std::uint32_t capacity_;
  std::vector<ObjectHistory> table_;  // dense, indexed by object id
};

/// Caller-owned working memory for FeatureExtractor::extract. Holding the
/// gap staging buffer outside the extractor keeps extract() a genuinely
/// const, data-race-free operation (concurrent extraction only needs one
/// scratch per thread) and makes the serving hot path allocation-free:
/// the buffer is sized on first use and reused for every later request.
struct FeatureScratch {
  std::vector<float> gaps;
};

/// Stateful feature extractor combining the history table with the
/// request's own attributes and the cache's free-byte count.
///
/// Thread safety: extract() is const and touches no extractor state
/// besides the (read-only) history table, so any number of threads may
/// extract concurrently, each with its own FeatureScratch. observe() and
/// reset() mutate the history and require external serialization against
/// everything else.
class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureConfig config = {});

  const FeatureConfig& config() const { return config_; }
  /// Cached at construction: FeatureConfig::dimension() materializes the
  /// gap-index list, which must not happen per extract() call.
  std::size_t dimension() const { return dimension_; }

  /// Build the feature vector for a request arriving at logical time
  /// `time` while the cache has `free_bytes` available, staging gaps in
  /// `scratch` (allocation-free once the scratch is warm). Does NOT
  /// record the request; call observe() afterwards.
  void extract(const trace::Request& request, std::uint64_t time,
               std::uint64_t free_bytes, std::span<float> out,
               FeatureScratch& scratch) const;

  /// Record the request into the history.
  void observe(const trace::Request& request, std::uint64_t time);

  void reset();

  const HistoryTable& history() const { return history_; }

 private:
  FeatureConfig config_;
  HistoryTable history_;
  std::vector<std::uint32_t> gap_indices_;
  std::size_t dimension_;
};

}  // namespace lfo::features

#endif  // LFO_FEATURES_FEATURES_HPP

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
///    the gaps of gap_indices()]
/// where gap_1 is the time since the previous request to the object and
/// gap_k (k >= 2) is the time between the (k-1)-th and k-th most recent
/// requests. Gaps (except gap_1) are shift invariant, which the paper
/// highlights as important for robustness.
struct FeatureConfig {
  std::uint32_t num_gaps = 32;
  bool include_size = true;
  bool include_cost = true;
  bool include_free_bytes = true;
  /// Log-spaced gaps (paper §2.2 and Fig 8: the low gaps carry the
  /// splits): every gap up to 8, then 2^k and 3*2^k (12, 16, 24, 32, 48,
  /// ...) up to num_gaps, so the default is 15 features. False emits
  /// every gap 1..num_gaps, the paper's dense 53-feature schema at 50.
  bool thin_gaps = true;
  /// Value used when an object has fewer recorded gaps than a gap index.
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
  /// The gap indices (1-based, increasing) actually emitted, honoring
  /// thin_gaps. The largest is the history depth an extractor keeps.
  std::vector<std::uint32_t> gap_indices() const;

  /// Same schema: a model trained under one config reads feature rows
  /// only from an extractor with an equal config.
  friend bool operator==(const FeatureConfig&, const FeatureConfig&) = default;
};

/// Tracks per-object request-time history, providing the gap features.
///
/// The store is compact, so memory follows the number of distinct
/// objects and their depth, never the values of their ids (paper §2.2:
/// most objects see few requests):
///  - Slots: one open-addressing table (linear probing, power-of-two
///    size, load <= 1/2) of 16-byte slots holding an object's id, the
///    offset of its ring, the ring's head and its count. A slot is
///    occupied when its count is nonzero, so every 64-bit id is an
///    ordinary key. Ids are mixed with a per-table seed drawn at
///    construction, so a client cannot pick ids that share one probe
///    chain; where an id lands never affects its gaps.
///  - Rings: timestamps live in per-class slabs whose blocks hold 1, 2,
///    4, ... timestamps, capped at the table's depth; a ring's class
///    follows from its count. A full ring below the depth moves up one
///    class, and its old block goes on that class's free list for reuse.
///    A one-hit object costs one slot plus one timestamp.
class HistoryTable {
 public:
  /// Largest depth (and num_gaps): a ring's head and count are 16-bit.
  static constexpr std::uint32_t kMaxGaps = 65535;

  /// Keeps each object's last `depth` request times (gap_1..gap_depth);
  /// hash seed drawn from std::random_device.
  explicit HistoryTable(std::uint32_t depth);
  /// A given hash seed (for tests that need known probe chains).
  HistoryTable(std::uint32_t depth, std::uint64_t seed);

  /// Record that `object` was requested at logical time `time` (a request
  /// counter). Call after extracting features for the request.
  void record(trace::ObjectId object, std::uint64_t time);

  /// Number of recorded past requests for this object (capped).
  std::uint32_t depth(trace::ObjectId object) const;

  /// Fill `out` (at most depth entries) with gap_1..gap_out.size()
  /// relative to `now`; missing entries get `missing_value`.
  void gaps(trace::ObjectId object, std::uint64_t now,
            std::span<float> out, float missing_value) const;

  /// Drop all state (e.g. between experiment repetitions).
  void clear();

  /// Number of tracked objects (for memory accounting).
  std::size_t tracked_objects() const { return tracked_; }

  /// Bytes the store holds: the slot table plus every ring slab, free
  /// blocks and growth slack included.
  std::size_t bytes() const;

  /// bytes() / tracked_objects(), 0 when nothing is tracked (the paper
  /// quotes 208 B for the naive representation).
  std::size_t bytes_per_object() const;

 private:
  struct Slot {
    trace::ObjectId key;
    std::uint32_t offset;  ///< first timestamp of the ring in its slab
    std::uint16_t head;    ///< oldest timestamp; nonzero only once wrapped
    std::uint16_t count;   ///< timestamps held; 0 marks an empty slot
  };

  std::size_t home(trace::ObjectId object) const;
  /// The object's slot, or the empty slot where it would go.
  std::size_t probe(trace::ObjectId object) const;
  void grow_slots();
  std::uint32_t class_of(std::uint32_t count) const;
  std::uint32_t class_size(std::uint32_t cls) const;
  /// A free block of class `cls`: reused from the free list, or carved
  /// from the end of the slab. Throws std::length_error rather than let
  /// an offset pass the range of Slot::offset.
  std::uint32_t allocate(std::uint32_t cls);
  void release(std::uint32_t cls, std::uint32_t offset);

  std::uint32_t capacity_;  // depth
  std::uint32_t top_;       // class of the full-depth ring
  std::uint64_t seed_;
  std::vector<Slot> slots_;
  std::size_t tracked_ = 0;
  std::vector<std::vector<std::uint64_t>> slabs_;  // per class
  std::vector<std::uint32_t> free_;  // per class: first free block
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
/// request's own attributes and the cache's free-byte count. Its history
/// is only as deep as the largest emitted gap.
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
  std::vector<std::uint32_t> gap_indices_;
  HistoryTable history_;
  std::size_t dimension_;
};

}  // namespace lfo::features

#endif  // LFO_FEATURES_FEATURES_HPP

#ifndef LFO_BENCH_SPANS_HPP
#define LFO_BENCH_SPANS_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lfo_bench {

using Clock = std::chrono::steady_clock;

/// The layer boundaries the traced run times. Each span is recorded by the
/// benchmark around one call into the named public function.
enum class Layer : std::uint8_t {
  kLearnWindow,     ///< one learning-loop window (parent of the five below)
  kOpt,             ///< opt::compute_opt
  kDataset,         ///< features::build_dataset
  kTrain,           ///< gbdt::train
  kGate,            ///< gbdt::confusion for the RolloutCandidate
  kCompile,         ///< core::LfoModel constructor
  kInstall,         ///< ShardedLfoCache::install_candidate
  kFrame,           ///< one in-process frame of ShardedLfoCache::access calls
  kShardedAccess,   ///< ShardedLfoCache::access
  kLfoHit,          ///< core::LfoCache::access that hit
  kLfoMiss,         ///< core::LfoCache::access that missed
  kExtract,         ///< FeatureExtractor::extract
  kPredict,         ///< LfoModel::predict(row, scratch)
  kObserve,         ///< FeatureExtractor::observe
  kExchange,        ///< LfoClient::exchange (one wire frame)
  kCount,
};

const char* layer_name(Layer layer);

/// In-memory span store. Every span adds to its layer's count and total;
/// the first `capacity` spans are also kept verbatim and written out as
/// JSON lines by write_jsonl() when the run ends. Single-threaded.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  /// `id` is the request index (or window / frame index); spans of one
  /// request share it. `parent` is the layer whose span caused this one.
  void record(Layer layer, Layer parent, std::uint64_t id,
              Clock::time_point start, Clock::time_point end) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        end - start)
                        .count();
    auto& total = totals_[static_cast<std::size_t>(layer)];
    ++total.count;
    total.ns += ns;
    if (kept_.size() < capacity_) {
      kept_.push_back({layer, parent, id,
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           start - origin_)
                           .count(),
                       ns});
    }
  }

  std::uint64_t count(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)].count;
  }
  /// Sum of the layer's span durations minus the clock-read cost each
  /// span includes (the calibrated overhead).
  double net_ns(Layer layer) const;
  /// net_ns / count, or 0 without spans.
  double mean_net_ns(Layer layer) const;

  /// Write the kept spans, one JSON object per line. False on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Kept {
    Layer layer;
    Layer parent;
    std::uint64_t id;
    std::int64_t start_ns;  ///< relative to the log's construction
    std::int64_t dur_ns;
  };
  struct Total {
    std::uint64_t count = 0;
    std::int64_t ns = 0;
  };

  std::size_t capacity_;
  Clock::time_point origin_;
  double overhead_ns_ = 0.0;  ///< empty-span cost (two clock reads)
  std::array<Total, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::vector<Kept> kept_;
};

}  // namespace lfo_bench

#endif  // LFO_BENCH_SPANS_HPP

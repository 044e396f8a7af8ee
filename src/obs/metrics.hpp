#ifndef LFO_OBS_METRICS_HPP
#define LFO_OBS_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lfo::obs {

/// Monotonically increasing event count. Lock-free: one relaxed
/// fetch_add per event; cache-line aligned so independent counters
/// never false-share.
class alignas(64) Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double value (queue depths, ratios, window metrics).
/// Relaxed store/load.
class alignas(64) Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram with streaming quantiles. Buckets are
/// powers of two in nanoseconds (bucket i holds durations whose
/// bit_width is i, i.e. [2^(i-1), 2^i) ns), so observe() is a bit scan
/// plus one relaxed increment — cheap enough for sampled per-request
/// timing. Quantiles interpolate linearly inside the containing bucket.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe_ns(std::uint64_t ns);
  void observe_seconds(double seconds);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum_seconds() const;
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i, in seconds.
  static double bucket_upper_seconds(std::size_t i);
  /// Streaming quantile estimate in seconds; q clamped to [0,1].
  /// Returns quiet NaN when no observations were recorded; the JSONL
  /// exporter maps that to null.
  double quantile(double q) const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// One consistent read of the registry, for the exporters.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::uint64_t count = 0;
    double sum_seconds = 0.0;
    /// (upper bound seconds, cumulative count) for every non-empty
    /// bucket boundary, ascending.
    std::vector<std::pair<double, std::uint64_t>> cumulative_buckets;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Process-wide named metrics. Registration (first lookup of a name)
/// takes a mutex; after that the returned reference is stable for the
/// process lifetime and the caller touches only its own atomic. The
/// LFO_COUNTER_* macros cache that reference in a function-local static,
/// so steady-state cost is one relaxed atomic op. Facts the serving path
/// already counts (CacheStats and friends) are not mirrored here: the
/// server appends them to the snapshot at scrape time
/// (TelemetryServerConfig::collect).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Names sorted ascending within each kind (deterministic export).
  MetricsSnapshot snapshot() const;
  /// Zero every registered metric (benchmarks / tests). References
  /// handed out earlier stay valid.
  void reset_all();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

namespace detail {
std::uint64_t monotonic_ns();
}  // namespace detail

}  // namespace lfo::obs

#define LFO_OBS_CONCAT_INNER(a, b) a##b
#define LFO_OBS_CONCAT(a, b) LFO_OBS_CONCAT_INNER(a, b)

#define LFO_COUNTER_ADD(name, delta)                             \
  do {                                                           \
    static ::lfo::obs::Counter& lfo_obs_counter_ref =            \
        ::lfo::obs::MetricsRegistry::instance().counter(name);   \
    lfo_obs_counter_ref.add(static_cast<std::uint64_t>(delta));  \
  } while (0)

#define LFO_COUNTER_INC(name) LFO_COUNTER_ADD(name, 1)

#define LFO_GAUGE_SET(name, v)                                   \
  do {                                                           \
    static ::lfo::obs::Gauge& lfo_obs_gauge_ref =                \
        ::lfo::obs::MetricsRegistry::instance().gauge(name);     \
    lfo_obs_gauge_ref.set(static_cast<double>(v));               \
  } while (0)

#define LFO_HISTOGRAM_OBSERVE_SECONDS(name, seconds)             \
  do {                                                           \
    static ::lfo::obs::LatencyHistogram& lfo_obs_hist_ref =      \
        ::lfo::obs::MetricsRegistry::instance().histogram(name); \
    lfo_obs_hist_ref.observe_seconds(seconds);                   \
  } while (0)

#endif  // LFO_OBS_METRICS_HPP

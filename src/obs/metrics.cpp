#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>

#include "util/thread_annotations.hpp"

namespace lfo::obs {

namespace detail {
std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace detail

void LatencyHistogram::observe_ns(std::uint64_t ns) {
  const auto idx = std::min<std::size_t>(std::bit_width(ns), kBuckets - 1);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void LatencyHistogram::observe_seconds(double seconds) {
  if (!(seconds > 0.0)) {
    observe_ns(0);
    return;
  }
  observe_ns(static_cast<std::uint64_t>(seconds * 1e9));
}

double LatencyHistogram::sum_seconds() const {
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

double LatencyHistogram::bucket_upper_seconds(std::size_t i) {
  // Bucket i holds ns values with bit_width == i: upper bound 2^i - 1.
  if (i == 0) return 0.0;
  if (i >= kBuckets - 1) return std::ldexp(1.0, 63) * 1e-9;
  return (std::ldexp(1.0, static_cast<int>(i)) - 1.0) * 1e-9;
}

double LatencyHistogram::quantile(double q) const {
  const auto total = count();
  // NaN for "no observations": a 0.0 latency estimate from an empty
  // histogram is indistinguishable from a real sub-nanosecond
  // measurement. Exporters map it to JSON null.
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total - 1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket - 1) >= target) {
      // Interpolate linearly inside [lower, upper] of this bucket.
      const double lower = i == 0 ? 0.0 : bucket_upper_seconds(i - 1);
      const double upper = bucket_upper_seconds(i);
      const double into =
          in_bucket == 1
              ? 0.0
              : (target - static_cast<double>(cum)) /
                    static_cast<double>(in_bucket - 1);
      return lower + (upper - lower) * std::clamp(into, 0.0, 1.0);
    }
    cum += in_bucket;
  }
  return bucket_upper_seconds(kBuckets - 1);
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- registry

struct MetricsRegistry::Impl {
  mutable util::Mutex mu;
  // std::map nodes are stable: references returned by the lookup methods
  // survive any later registration, so only the maps themselves — not
  // the atomic metric objects inside them — need the lock.
  std::map<std::string, Counter, std::less<>> counters LFO_GUARDED_BY(mu);
  std::map<std::string, Gauge, std::less<>> gauges LFO_GUARDED_BY(mu);
  std::map<std::string, LatencyHistogram, std::less<>> histograms
      LFO_GUARDED_BY(mu);
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl impl;
  return impl;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto& im = impl();
  const util::MutexLock lock(im.mu);
  const auto it = im.counters.find(name);
  if (it != im.counters.end()) return it->second;
  return im.counters.emplace(std::piecewise_construct,
                             std::forward_as_tuple(name),
                             std::forward_as_tuple())
      .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto& im = impl();
  const util::MutexLock lock(im.mu);
  const auto it = im.gauges.find(name);
  if (it != im.gauges.end()) return it->second;
  return im.gauges.emplace(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple())
      .first->second;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  auto& im = impl();
  const util::MutexLock lock(im.mu);
  const auto it = im.histograms.find(name);
  if (it != im.histograms.end()) return it->second;
  return im.histograms.emplace(std::piecewise_construct,
                               std::forward_as_tuple(name),
                               std::forward_as_tuple())
      .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  auto& im = impl();
  const util::MutexLock lock(im.mu);
  MetricsSnapshot snap;
  snap.counters.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters) {
    snap.counters.push_back({name, c.value()});
  }
  snap.gauges.reserve(im.gauges.size());
  for (const auto& [name, g] : im.gauges) {
    snap.gauges.push_back({name, g.value()});
  }
  snap.histograms.reserve(im.histograms.size());
  for (const auto& [name, h] : im.histograms) {
    MetricsSnapshot::HistogramSample sample;
    sample.name = name;
    sample.count = h.count();
    sample.sum_seconds = h.sum_seconds();
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      const auto in_bucket = h.bucket_count(i);
      if (in_bucket == 0) continue;
      cum += in_bucket;
      sample.cumulative_buckets.emplace_back(
          LatencyHistogram::bucket_upper_seconds(i), cum);
    }
    // observe_ns() bumps its bucket and count_ as two relaxed ops, so a
    // snapshot racing live observers can read a bucket increment whose
    // count_ increment it hasn't seen. Clamp so the exported exposition
    // keeps the Prometheus invariant `+Inf bucket (== count) >= every
    // cumulative bucket` — scrapers diff these and reject regressions.
    sample.count = std::max(sample.count, cum);
    sample.p50 = h.quantile(0.50);
    sample.p90 = h.quantile(0.90);
    sample.p99 = h.quantile(0.99);
    snap.histograms.push_back(std::move(sample));
  }
  return snap;
}

void MetricsRegistry::reset_all() {
  auto& im = impl();
  const util::MutexLock lock(im.mu);
  for (auto& [name, c] : im.counters) c.reset();
  for (auto& [name, g] : im.gauges) g.reset();
  for (auto& [name, h] : im.histograms) h.reset();
}

}  // namespace lfo::obs

#ifndef LFO_UTIL_STATS_HPP
#define LFO_UTIL_STATS_HPP

#include <cstddef>
#include <cstdint>

namespace lfo::util {

/// Online mean/variance accumulator (Welford). O(1) space, numerically
/// stable; used by every experiment harness to report series statistics.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Confusion-matrix accumulator for binary classifiers; reports the
/// accuracy / false-positive / false-negative rates the paper plots (Fig 5).
class BinaryConfusion {
 public:
  void add(bool predicted, bool actual);

  std::uint64_t tp() const { return tp_; }
  std::uint64_t tn() const { return tn_; }
  std::uint64_t fp() const { return fp_; }
  std::uint64_t fn() const { return fn_; }
  std::uint64_t total() const { return tp_ + tn_ + fp_ + fn_; }

  double accuracy() const;
  /// Fraction of all samples that are false positives (paper Fig 5a plots
  /// FP/FN as a share of requests, not of the negative/positive class).
  double false_positive_share() const;
  double false_negative_share() const;
  /// Classic per-class rates, also exposed for completeness.
  double false_positive_rate() const;  ///< fp / (fp + tn)
  double false_negative_rate() const;  ///< fn / (fn + tp)
  double precision() const;
  double recall() const;

 private:
  std::uint64_t tp_ = 0, tn_ = 0, fp_ = 0, fn_ = 0;
};

}  // namespace lfo::util

#endif  // LFO_UTIL_STATS_HPP

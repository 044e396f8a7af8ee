#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace lfo::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void BinaryConfusion::add(bool predicted, bool actual) {
  if (predicted && actual) ++tp_;
  else if (predicted && !actual) ++fp_;
  else if (!predicted && actual) ++fn_;
  else ++tn_;
}

double BinaryConfusion::accuracy() const {
  const auto t = total();
  return t ? static_cast<double>(tp_ + tn_) / static_cast<double>(t) : 0.0;
}

double BinaryConfusion::false_positive_share() const {
  const auto t = total();
  return t ? static_cast<double>(fp_) / static_cast<double>(t) : 0.0;
}

double BinaryConfusion::false_negative_share() const {
  const auto t = total();
  return t ? static_cast<double>(fn_) / static_cast<double>(t) : 0.0;
}

double BinaryConfusion::false_positive_rate() const {
  const auto denom = fp_ + tn_;
  return denom ? static_cast<double>(fp_) / static_cast<double>(denom) : 0.0;
}

double BinaryConfusion::false_negative_rate() const {
  const auto denom = fn_ + tp_;
  return denom ? static_cast<double>(fn_) / static_cast<double>(denom) : 0.0;
}

double BinaryConfusion::precision() const {
  const auto denom = tp_ + fp_;
  return denom ? static_cast<double>(tp_) / static_cast<double>(denom) : 0.0;
}

double BinaryConfusion::recall() const {
  const auto denom = tp_ + fn_;
  return denom ? static_cast<double>(tp_) / static_cast<double>(denom) : 0.0;
}

}  // namespace lfo::util

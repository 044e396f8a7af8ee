#include "gbdt/dataset.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace lfo::gbdt {

Dataset::Dataset(std::size_t num_features) : num_features_(num_features) {
  if (num_features == 0) {
    throw std::invalid_argument("Dataset: need at least one feature");
  }
}

void Dataset::add_row(std::span<const float> features, float label) {
  if (features.size() != num_features_) {
    throw std::invalid_argument("Dataset::add_row: feature count mismatch");
  }
  // Binning orders values, and NaN has no place in that order.
  if (std::isnan(label) ||
      std::any_of(features.begin(), features.end(),
                  [](float v) { return std::isnan(v); })) {
    throw std::invalid_argument("Dataset::add_row: NaN feature or label");
  }
  features_.insert(features_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

void Dataset::reserve(std::size_t rows) {
  features_.reserve(rows * num_features_);
  labels_.reserve(rows);
}

std::uint32_t FeatureBins::bin_for(float value) const {
  // upper_bounds is sorted; bin = index of first bound >= value.
  const auto it =
      std::lower_bound(upper_bounds.begin(), upper_bounds.end(), value);
  return static_cast<std::uint32_t>(it - upper_bounds.begin());
}

namespace {

/// Quantile bin boundaries for one feature column, from its sorted
/// distinct values. Fewer distinct values than max_bins get one bin each
/// (exact splits); otherwise boundaries sit at evenly spaced quantiles of
/// the distinct values.
FeatureBins build_bins(std::span<const float> values,
                       std::uint32_t max_bins) {
  FeatureBins fb;
  if (values.size() <= 1) return fb;  // constant feature: single bin
  if (values.size() <= max_bins) {
    // One bin per distinct value; boundary = midpoint between neighbours.
    fb.upper_bounds.reserve(values.size() - 1);
    for (std::size_t i = 0; i + 1 < values.size(); ++i) {
      fb.upper_bounds.push_back(values[i] +
                                (values[i + 1] - values[i]) * 0.5f);
    }
    return fb;
  }
  fb.upper_bounds.reserve(max_bins - 1);
  for (std::uint32_t b = 1; b < max_bins; ++b) {
    const auto idx = static_cast<std::size_t>(
        static_cast<double>(b) * static_cast<double>(values.size()) /
        static_cast<double>(max_bins));
    const auto clamped = std::min(idx, values.size() - 1);
    const float bound = values[clamped];
    if (fb.upper_bounds.empty() || bound > fb.upper_bounds.back()) {
      fb.upper_bounds.push_back(bound);
    }
  }
  return fb;
}

/// Order-preserving unsigned key of a non-NaN float: keys compare as the
/// floats do. -0 is keyed as +0, since the two compare equal.
std::uint32_t sort_key(float v) {
  auto u = std::bit_cast<std::uint32_t>(v);
  if (u == 0x80000000u) u = 0;
  return (u & 0x80000000u) != 0 ? ~u : u | 0x80000000u;
}

float from_key(std::uint32_t key) {
  return std::bit_cast<float>((key & 0x80000000u) != 0 ? key & 0x7fffffffu
                                                       : ~key);
}

/// Stable LSD radix sort of `items` by their high 32 bits (the key), one
/// byte per pass; a pass whose byte every key shares is skipped.
void radix_sort_by_key(std::vector<std::uint64_t>& items,
                       std::vector<std::uint64_t>& scratch) {
  std::array<std::array<std::size_t, 256>, 4> counts{};
  for (const auto item : items) {
    for (std::size_t p = 0; p < 4; ++p) {
      ++counts[p][(item >> (32 + 8 * p)) & 0xffu];
    }
  }
  scratch.resize(items.size());
  for (std::size_t p = 0; p < 4; ++p) {
    const auto shift = 32 + 8 * p;
    auto& offsets = counts[p];
    if (offsets[(items.front() >> shift) & 0xffu] == items.size()) continue;
    std::size_t sum = 0;
    for (auto& c : offsets) sum += std::exchange(c, sum);
    for (const auto item : items) {
      scratch[offsets[(item >> shift) & 0xffu]++] = item;
    }
    items.swap(scratch);
  }
}

}  // namespace

BinnedDataset::BinnedDataset(const Dataset& data, std::uint32_t max_bins)
    : num_rows_(data.num_rows()), num_features_(data.num_features()) {
  if (max_bins < 2 || max_bins > 256) {
    throw std::invalid_argument("BinnedDataset: max_bins must be in [2,256]");
  }
  const std::size_t cols = data.num_features();
  bins_.reserve(cols);
  binned_.resize(cols * num_rows_);
  // Per column: sort the row ids once by value, read the distinct values
  // off the sorted order, then give every run of equal values its bin in
  // one walk that moves monotonically through the bounds.
  std::vector<std::uint64_t> sorted(num_rows_), scratch;
  std::vector<float> distinct;
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < num_rows_; ++r) {
      sorted[r] = std::uint64_t{sort_key(data.feature(r, c))} << 32 | r;
    }
    if (!sorted.empty()) radix_sort_by_key(sorted, scratch);
    distinct.clear();
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i == 0 || (sorted[i] >> 32) != (sorted[i - 1] >> 32)) {
        distinct.push_back(
            from_key(static_cast<std::uint32_t>(sorted[i] >> 32)));
      }
    }
    bins_.push_back(build_bins(distinct, max_bins));
    const auto& bounds = bins_.back().upper_bounds;
    std::uint8_t* out = binned_.data() + c;
    std::size_t bin = 0;
    std::size_t d = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0 && (sorted[i] >> 32) != (sorted[i - 1] >> 32)) ++d;
      while (bin < bounds.size() && bounds[bin] < distinct[d]) ++bin;
      out[(sorted[i] & 0xffffffffu) * cols] = static_cast<std::uint8_t>(bin);
    }
  }
}

}  // namespace lfo::gbdt

#ifndef LFO_GBDT_DATASET_HPP
#define LFO_GBDT_DATASET_HPP

#include <cstdint>
#include <span>
#include <vector>

namespace lfo::gbdt {

/// Dense training dataset: row-major float features plus binary labels.
/// Feature values may repeat heavily (CDN features are extremely sparse and
/// skewed); the trainer bins them into quantile histograms, so duplicates
/// cost nothing.
class Dataset {
 public:
  Dataset(std::size_t num_features);

  std::size_t num_features() const { return num_features_; }
  std::size_t num_rows() const { return labels_.size(); }

  /// Append one sample; `features` must have num_features() entries.
  /// Throws std::invalid_argument on a NaN feature or label.
  void add_row(std::span<const float> features, float label);

  /// Reserve capacity for `rows` samples.
  void reserve(std::size_t rows);

  float feature(std::size_t row, std::size_t col) const {
    return features_[row * num_features_ + col];
  }
  float label(std::size_t row) const { return labels_[row]; }
  std::span<const float> row(std::size_t r) const {
    return {features_.data() + r * num_features_, num_features_};
  }
  std::span<const float> labels() const { return labels_; }
  /// The whole row-major feature matrix (obs::summarize_rows reads it).
  std::span<const float> features_matrix() const { return features_; }

 private:
  std::size_t num_features_;
  std::vector<float> features_;
  std::vector<float> labels_;
};

/// Per-feature quantile bin boundaries. Bin b holds values in
/// (upper[b-1], upper[b]]; the last bin is unbounded above.
struct FeatureBins {
  std::vector<float> upper_bounds;  ///< size = num_bins - 1
  std::uint32_t num_bins() const {
    return static_cast<std::uint32_t>(upper_bounds.size()) + 1;
  }
  /// Map a raw value to its bin index.
  std::uint32_t bin_for(float value) const;
};

/// Histogram-binned view of a Dataset: uint8 bin ids, row-major. The
/// trainer walks a leaf's rows once and adds each row's gradients to
/// every candidate feature's histogram, so a row's bins are adjacent
/// bytes (at 16 features, four rows to a 64-byte cache line).
class BinnedDataset {
 public:
  /// Build quantile bins (at most `max_bins` <= 256 per feature) from the
  /// dataset and bin every value. Each column is sorted once (a radix
  /// sort of row ids by value); bins are read off that order.
  BinnedDataset(const Dataset& data, std::uint32_t max_bins);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_features() const { return num_features_; }
  const FeatureBins& feature_bins(std::size_t f) const { return bins_[f]; }
  std::uint8_t bin(std::size_t row, std::size_t col) const {
    return binned_[row * num_features_ + col];
  }
  /// Row r's bins, one byte per feature.
  std::span<const std::uint8_t> row(std::size_t r) const {
    return {binned_.data() + r * num_features_, num_features_};
  }
  /// The raw threshold value separating bin b from bin b+1 of feature f
  /// (used to emit trees that predict directly from raw floats).
  float split_value(std::size_t f, std::uint32_t bin) const {
    return bins_[f].upper_bounds[bin];
  }

 private:
  std::size_t num_rows_;
  std::size_t num_features_;
  std::vector<FeatureBins> bins_;
  std::vector<std::uint8_t> binned_;  // row-major
};

}  // namespace lfo::gbdt

#endif  // LFO_GBDT_DATASET_HPP

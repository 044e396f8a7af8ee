#include "features/features.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_annotations.hpp"

namespace lfo::features {

std::size_t FeatureConfig::dimension() const {
  std::size_t dim = gap_indices().size();
  if (include_size) ++dim;
  if (include_cost) ++dim;
  if (include_free_bytes) ++dim;
  return dim;
}

std::vector<std::uint32_t> FeatureConfig::gap_indices() const {
  std::vector<std::uint32_t> idx;
  if (!thin_gaps) {
    for (std::uint32_t g = 1; g <= num_gaps; ++g) idx.push_back(g);
    return idx;
  }
  for (std::uint32_t g = 1; g <= num_gaps; g *= 2) idx.push_back(g);
  return idx;
}

std::vector<std::string> FeatureConfig::names() const {
  std::vector<std::string> names;
  if (include_size) names.emplace_back("size");
  if (include_cost) names.emplace_back("cost");
  if (include_free_bytes) names.emplace_back("free");
  for (const auto g : gap_indices()) {
    names.push_back("gap" + std::to_string(g));
  }
  return names;
}

HistoryTable::HistoryTable(std::uint32_t num_gaps) : capacity_(num_gaps) {
  if (capacity_ == 0) {
    throw std::invalid_argument("HistoryTable: num_gaps must be > 0");
  }
}

void HistoryTable::record(trace::ObjectId object, std::uint64_t time) {
  // Ids come off the wire. resize(object + 1) would wrap to 0 for the
  // largest id and then write past the end, so refuse any id the table
  // cannot index.
  if (object >= table_.max_size()) {
    throw std::length_error("HistoryTable: object id " +
                            std::to_string(object) + " out of range");
  }
  if (object >= table_.size()) table_.resize(object + 1);
  auto& h = table_[object];
  if (h.times.empty()) h.times.assign(capacity_, 0);
  if (h.count < capacity_) {
    h.times[(h.head + h.count) % capacity_] = time;
    ++h.count;
  } else {
    h.times[h.head] = time;
    h.head = (h.head + 1) % capacity_;
  }
}

std::uint32_t HistoryTable::depth(trace::ObjectId object) const {
  if (object >= table_.size()) return 0;
  return table_[object].count;
}

void HistoryTable::gaps(trace::ObjectId object, std::uint64_t now,
                        std::span<float> out, float missing_value) const {
  std::fill(out.begin(), out.end(), missing_value);
  if (object >= table_.size()) return;
  const auto& h = table_[object];
  if (h.count == 0) return;
  // Walk from the newest recorded time backwards. gap_1 = now - newest;
  // gap_k = time_{k-1} - time_k for k >= 2.
  std::uint64_t later = now;
  for (std::uint32_t k = 0; k < h.count && k < out.size(); ++k) {
    const std::uint32_t pos = (h.head + h.count - 1 - k) % capacity_;
    const std::uint64_t t = h.times[pos];
    out[k] = static_cast<float>(later - t);
    later = t;
  }
}

void HistoryTable::clear() { table_.clear(); }

std::size_t HistoryTable::tracked_objects() const {
  std::size_t n = 0;
  for (const auto& h : table_) {
    if (h.count > 0) ++n;
  }
  return n;
}

std::size_t HistoryTable::bytes_per_object() const {
  return sizeof(ObjectHistory) + capacity_ * sizeof(std::uint64_t);
}

FeatureExtractor::FeatureExtractor(FeatureConfig config)
    : config_(config),
      history_(config.num_gaps),
      gap_indices_(config.gap_indices()),
      dimension_(config.dimension()) {}

LFO_HOT_PATH void FeatureExtractor::extract(const trace::Request& request,
                               std::uint64_t time, std::uint64_t free_bytes,
                               std::span<float> out,
                               FeatureScratch& scratch) const {
  if (out.size() != dimension()) {
    throw std::invalid_argument("FeatureExtractor::extract: bad out size");
  }
  if (scratch.gaps.size() != config_.num_gaps) {
    // lfo-lint: allow(hotpath): one-time scratch growth on first call
    scratch.gaps.resize(config_.num_gaps);  // first use only
  }
  std::size_t i = 0;
  if (config_.include_size) out[i++] = static_cast<float>(request.size);
  if (config_.include_cost) out[i++] = static_cast<float>(request.cost);
  if (config_.include_free_bytes) {
    out[i++] = static_cast<float>(free_bytes);
  }
  history_.gaps(request.object, time, scratch.gaps,
                config_.missing_gap_value);
  for (const auto g : gap_indices_) {
    out[i++] = scratch.gaps[g - 1];
  }
}

void FeatureExtractor::observe(const trace::Request& request,
                               std::uint64_t time) {
  history_.record(request.object, time);
}

void FeatureExtractor::reset() { history_.clear(); }

}  // namespace lfo::features

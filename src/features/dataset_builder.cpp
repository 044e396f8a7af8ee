#include "features/dataset_builder.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "util/rng.hpp"

namespace lfo::features {

gbdt::Dataset build_dataset(std::span<const trace::Request> reqs,
                            const opt::OptDecisions& decisions,
                            const DatasetBuildOptions& options) {
  LFO_TRACE_SPAN("dataset_build");
  LFO_COUNTER_ADD("lfo_dataset_rows_total", reqs.size());
  if (decisions.cached.size() != reqs.size()) {
    throw std::invalid_argument(
        "build_dataset: decisions do not match window");
  }
  FeatureExtractor extractor(options.features);
  gbdt::Dataset data(extractor.dimension());
  data.reserve(reqs.size());

  const auto next = trace::next_request_indices(reqs);

  // Sweep OPT's occupancy. A decided interval [i, next[i]) admits `size`
  // bytes *after* request i is served and releases them after request
  // next[i] arrives — so the free-bytes feature at any request reflects
  // the pre-admission state the live cache would report (a hit object is
  // still resident when its request arrives).
  std::vector<std::int64_t> admit_at(reqs.size(), 0);
  std::vector<std::int64_t> release_at(reqs.size(), 0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (decisions.cached[i] && next[i] != trace::kNoNextRequest) {
      admit_at[i] += static_cast<std::int64_t>(reqs[i].size);
      release_at[next[i]] += static_cast<std::int64_t>(reqs[i].size);
    }
  }

  util::Rng noise_rng(options.noise_seed);
  const std::size_t gap_begin = options.features.gap_offset();
  const float missing = options.features.missing_gap_value;

  std::vector<float> row(extractor.dimension());
  FeatureScratch scratch;
  std::int64_t occupied = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto free_bytes =
        occupied >= static_cast<std::int64_t>(options.cache_size)
            ? std::uint64_t{0}
            : options.cache_size - static_cast<std::uint64_t>(occupied);
    extractor.extract(reqs[i], i, free_bytes, row, scratch);
    extractor.observe(reqs[i], i);
    if (options.gap_noise_sigma > 0.0) {
      for (std::size_t f = gap_begin; f < row.size(); ++f) {
        if (row[f] == missing) continue;
        row[f] = static_cast<float>(
            row[f] * std::exp(noise_rng.normal(0.0,
                                               options.gap_noise_sigma)));
      }
    }
    data.add_row(row, decisions.cached[i] ? 1.0f : 0.0f);
    occupied += admit_at[i] - release_at[i];
  }
  return data;
}

}  // namespace lfo::features

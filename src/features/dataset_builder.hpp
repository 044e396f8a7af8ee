#ifndef LFO_FEATURES_DATASET_BUILDER_HPP
#define LFO_FEATURES_DATASET_BUILDER_HPP

#include <cstdint>
#include <span>

#include "features/features.hpp"
#include "gbdt/dataset.hpp"
#include "opt/opt.hpp"
#include "trace/trace.hpp"

namespace lfo::features {

/// Options for turning (window, OPT decisions) into a supervised dataset.
struct DatasetBuildOptions {
  FeatureConfig features;
  std::uint64_t cache_size = 1ULL << 30;
  /// Training-time robustness noise (paper §2.2: "adding small amounts
  /// of noise can actually be helpful"): each *recorded* gap feature is
  /// multiplied by exp(N(0, sigma)). 0 disables. Missing-gap sentinels
  /// are left untouched.
  double gap_noise_sigma = 0.0;
  std::uint64_t noise_seed = 1;
};

/// Build the training dataset for one window (paper Fig 2): one sample per
/// request, features extracted online-style (history of *past* requests
/// only) and label = OPT's decision for the interval starting at that
/// request.
///
/// The free-bytes feature is derived from OPT's own schedule: at any time
/// the bytes OPT keeps cached are the active decided intervals, and free
/// bytes = cache_size - occupied. During live operation the same feature
/// comes from the real cache instead.
gbdt::Dataset build_dataset(std::span<const trace::Request> reqs,
                            const opt::OptDecisions& decisions,
                            const DatasetBuildOptions& options);

}  // namespace lfo::features

#endif  // LFO_FEATURES_DATASET_BUILDER_HPP

#ifndef LFO_CORE_LFO_MODEL_HPP
#define LFO_CORE_LFO_MODEL_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/rollout.hpp"
#include "features/dataset_builder.hpp"
#include "features/features.hpp"
#include "gbdt/flat_forest.hpp"
#include "gbdt/gbdt.hpp"
#include "obs/model_health.hpp"
#include "opt/opt.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace lfo::core {

/// End-to-end LFO configuration: how OPT labels are derived, which online
/// features are used, how the booster is trained, and the admission cutoff.
struct LfoConfig {
  std::uint64_t cache_size = 1ULL << 30;
  opt::OptConfig opt;                 ///< OPT label computation
  features::FeatureConfig features;   ///< online feature vector (§2.2)
  gbdt::Params gbdt = gbdt::Params::paper_defaults();  ///< §2.3
  double cutoff = 0.5;                ///< admission threshold (§2.4)

  LfoConfig() {
    opt.cache_size = cache_size;
    opt.mode = opt::OptMode::kGreedyPacking;
  }
  /// Keep opt.cache_size in sync when changing cache_size.
  void set_cache_size(std::uint64_t bytes) {
    cache_size = bytes;
    opt.cache_size = bytes;
  }
};

/// A trained LFO predictor: the boosted-tree model, the feature schema
/// it was trained with and the feature summary of its training window.
/// Thread-safe for concurrent prediction (immutable after construction).
class LfoModel {
 public:
  LfoModel(gbdt::Model model, features::FeatureConfig config,
           obs::FeatureSummary training_summary = {});

  /// Probability that OPT would cache this feature vector, from the
  /// compiled flat forest (bitwise equal to booster().predict_proba).
  double predict(std::span<const float> feature_row) const;
  /// Kept only for lfo_bench, which still passes a scratch; ignores it.
  double predict(std::span<const float> feature_row,
                 features::FeatureScratch&) const {
    return predict(feature_row);
  }

  /// The reference per-tree walk: the oracle the flat forest is checked
  /// against.
  const gbdt::Model& booster() const { return model_; }
  /// The compiled serving engine (built once at construction, i.e. at
  /// model-swap time in the windowed pipeline).
  const gbdt::FlatForest& forest() const { return forest_; }
  const features::FeatureConfig& feature_config() const { return config_; }
  std::size_t dimension() const { return config_.dimension(); }
  /// Per-feature mean/stddev of the training matrix: the baseline a
  /// later window's drift is scored against. Not persisted, so a
  /// hand-built or loaded model has an empty summary (rows == 0) and
  /// its drift stays unknown.
  const obs::FeatureSummary& training_summary() const {
    return training_summary_;
  }

  /// Fig 8: fraction of tree splits per feature, labelled.
  struct FeatureImportance {
    std::string name;
    std::uint64_t splits;
    double share;
  };
  std::vector<FeatureImportance> feature_importance() const;

  /// Persistence: the booster plus the feature schema it expects. A
  /// loaded model is never fed a mismatched feature vector: load()
  /// refuses a split on a feature outside the schema, and
  /// LfoCache::swap_model refuses a model whose schema is not the
  /// cache's. load() treats the file as untrusted input and throws
  /// std::runtime_error on anything malformed, and on any header but
  /// `lfo-model v2` (a v1 file's thin_gaps named another gap set).
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  static LfoModel load(std::istream& is);
  static LfoModel load_file(const std::string& path);

 private:
  gbdt::Model model_;
  gbdt::FlatForest forest_;
  features::FeatureConfig config_;
  obs::FeatureSummary training_summary_;
};

/// Diagnostics of one training run, and the rollout guard's view of it.
struct TrainResult {
  std::shared_ptr<const LfoModel> model;
  opt::OptDecisions opt;           ///< the labels used
  double train_accuracy = 0.0;     ///< agreement with OPT on the window
  /// In-sample confusion at the cutoff; train_accuracy is its
  /// accuracy(). The rollout gate derives the model-vs-OPT admit-share
  /// delta from it ((tp+fp)/total vs (tp+fn)/total).
  util::BinaryConfusion train_confusion;
  double opt_seconds = 0.0;
  double train_seconds = 0.0;
  std::size_t num_samples = 0;
  /// The serving model's cutoff decisions against this window's OPT
  /// labels (the paper's out-of-sample prediction error); empty when no
  /// serving model was given.
  std::optional<util::BinaryConfusion> serving_confusion;
  /// Feature drift of this window vs the serving model's training
  /// window; empty when no serving model was given or its summary is
  /// empty (a loaded or hand-built model).
  std::optional<obs::DriftScore> drift;
  /// What the rollout guard judges: train accuracy and the model-vs-OPT
  /// admit shares from train_confusion, plus drift and serving accuracy
  /// when known (-1 otherwise).
  RolloutCandidate candidate;
};

/// Train an LFO model on one window of requests (paper Fig 2, left side):
/// compute OPT, derive features, fit the booster, and assemble the
/// rollout candidate. Given the model now serving, also score it on the
/// window's rows and its drift against the new model's training window.
/// Throws std::invalid_argument on an empty window, or when `serving`
/// expects another feature schema than config.features.
TrainResult train_on_window(std::span<const trace::Request> window,
                            const LfoConfig& config,
                            const LfoModel* serving = nullptr);

/// Replay `window` through the feature extractor and compare the model's
/// cutoff decisions against OPT's. This is the paper's "prediction error"
/// (Figs 5a-5c): the free-bytes feature is derived from OPT's occupancy,
/// mirroring dataset construction.
util::BinaryConfusion evaluate_predictions(
    const LfoModel& model, std::span<const trace::Request> window,
    const opt::OptDecisions& opt, std::uint64_t cache_size, double cutoff);

}  // namespace lfo::core

#endif  // LFO_CORE_LFO_MODEL_HPP

#ifndef LFO_GBDT_GBDT_HPP
#define LFO_GBDT_GBDT_HPP

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "gbdt/dataset.hpp"
#include "gbdt/tree.hpp"
#include "util/stats.hpp"

namespace lfo::gbdt {

/// Training objective.
enum class Objective {
  kBinaryLogistic,  ///< labels in {0,1}; predict_proba is meaningful
  kRegressionL2,    ///< real-valued labels; use predict_raw
};

/// Training hyperparameters. Defaults mirror LightGBM's; the paper uses
/// LightGBM defaults except num_iterations = 30 (§2.3).
struct Params {
  Objective objective = Objective::kBinaryLogistic;
  std::uint32_t num_iterations = 100;
  double learning_rate = 0.1;
  std::uint32_t num_leaves = 31;
  std::int32_t max_depth = -1;      ///< -1 = unlimited
  std::uint32_t min_data_in_leaf = 20;
  double feature_fraction = 1.0;    ///< fraction of features tried per tree
  double bagging_fraction = 1.0;    ///< fraction of rows sampled per tree
  std::uint64_t seed = 1;

  /// The paper's configuration: LightGBM defaults with 30 iterations.
  static Params paper_defaults() {
    Params p;
    p.num_iterations = 30;
    return p;
  }
};

/// A trained boosted-tree binary classifier.
class Model {
 public:
  Model() = default;
  Model(double base_score, std::vector<Tree> trees);

  std::size_t num_trees() const { return trees_.size(); }
  const Tree& tree(std::size_t i) const { return trees_[i]; }
  double base_score() const { return base_score_; }

  /// Raw additive score (log-odds).
  double predict_raw(std::span<const float> features) const;
  /// Probability of the positive class (sigmoid of the raw score).
  double predict_proba(std::span<const float> features) const;

  /// Per-feature count of internal-node splits across all trees — the
  /// feature-importance measure the paper plots in Fig 8.
  std::vector<std::uint64_t> split_counts(std::size_t num_features) const;
  /// split_counts normalized to fractions summing to 1.
  std::vector<double> split_shares(std::size_t num_features) const;

  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  static Model load(std::istream& is);
  static Model load_file(const std::string& path);

 private:
  double base_score_ = 0.0;
  std::vector<Tree> trees_;
};

/// Fit params.num_iterations trees to params.objective (logistic loss
/// or L2) on the calling thread. Training is seed-deterministic: a fixed
/// seed yields a bitwise-identical model for any row order, because
/// histograms hold exact integer (fixed-point) gradient sums, which no
/// summation order can change. Throws std::invalid_argument on an empty
/// dataset or num_leaves < 2.
Model train(const Dataset& data, const Params& params);

/// Numerically stable sigmoid.
double sigmoid(double x);

/// std::llround (halves away from zero) for |x| < 2^63, inlined: the
/// trainer rounds every gradient to fixed point with it. Truncation to
/// an integer is exact, and so is the fraction it leaves.
inline std::int64_t round_half_away(double x) {
  const auto whole = static_cast<std::int64_t>(x);
  const double frac = x - static_cast<double>(whole);
  return whole + (frac >= 0.5) - (frac <= -0.5);
}

/// Mean logistic loss of the model on a dataset. This and confusion()
/// compile the model into a FlatForest once per call and score through
/// the serving walk (bitwise equal to Model::predict_proba).
double logloss(const Model& model, const Dataset& data);

/// Accuracy at the given probability cutoff.
double accuracy(const Model& model, const Dataset& data, double cutoff = 0.5);

/// Full confusion matrix at the given probability cutoff. accuracy() is
/// confusion().accuracy(); the rollout gate additionally derives the
/// model's and OPT's admit shares ((tp+fp)/total vs (tp+fn)/total) from
/// it, so one pass over the rows serves both.
util::BinaryConfusion confusion(const Model& model, const Dataset& data,
                                double cutoff = 0.5);

}  // namespace lfo::gbdt

#endif  // LFO_GBDT_GBDT_HPP

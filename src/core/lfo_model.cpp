#include "core/lfo_model.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/trace_span.hpp"

namespace lfo::core {

namespace {
// lfo-lint: allow(nondet): wall-clock diagnostics only, never decisions
using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The model's cutoff decisions against the dataset's OPT labels.
util::BinaryConfusion score_rows(const LfoModel& model,
                                 const gbdt::Dataset& dataset,
                                 double cutoff) {
  util::BinaryConfusion confusion;
  for (std::size_t i = 0; i < dataset.num_rows(); ++i) {
    confusion.add(model.predict(dataset.row(i)) >= cutoff,
                  dataset.label(i) > 0.5f);
  }
  return confusion;
}
}  // namespace

LfoModel::LfoModel(gbdt::Model model, features::FeatureConfig config,
                   obs::FeatureSummary training_summary)
    : model_(std::move(model)),
      forest_(gbdt::FlatForest::compile(model_)),
      config_(config),
      training_summary_(std::move(training_summary)) {}

double LfoModel::predict(std::span<const float> feature_row) const {
  return forest_.predict_proba(feature_row);
}

std::vector<LfoModel::FeatureImportance> LfoModel::feature_importance()
    const {
  const auto names = config_.names();
  const auto counts = model_.split_counts(names.size());
  const auto shares = model_.split_shares(names.size());
  std::vector<FeatureImportance> out;
  out.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.push_back({names[i], counts[i], shares[i]});
  }
  return out;
}

void LfoModel::save(std::ostream& os) const {
  os.precision(17);
  os << "lfo-model v2\n";
  os << config_.num_gaps << ' ' << config_.include_size << ' '
     << config_.include_cost << ' ' << config_.include_free_bytes << ' '
     << config_.thin_gaps << ' ' << config_.missing_gap_value << '\n';
  model_.save(os);
}

void LfoModel::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("LfoModel::save_file: cannot open " + path);
  }
  save(os);
}

LfoModel LfoModel::load(std::istream& is) {
  std::string tag, version;
  is >> tag >> version;
  if (!is || tag != "lfo-model" || version != "v2") {
    throw std::runtime_error("LfoModel::load: bad header (want lfo-model v2)");
  }
  features::FeatureConfig config;
  is >> config.num_gaps >> config.include_size >> config.include_cost >>
      config.include_free_bytes >> config.thin_gaps >>
      config.missing_gap_value;
  if (!is || config.num_gaps == 0 ||
      config.num_gaps > features::HistoryTable::kMaxGaps) {
    throw std::runtime_error("LfoModel::load: bad feature config");
  }
  auto model = gbdt::Model::load(is);
  const auto dimension = static_cast<std::int32_t>(config.dimension());
  for (std::size_t t = 0; t < model.num_trees(); ++t) {
    const gbdt::Tree& tree = model.tree(t);
    for (std::int32_t node = 0; node < tree.num_nodes(); ++node) {
      if (!tree.is_leaf(node) && tree.split_feature(node) >= dimension) {
        throw std::runtime_error(
            "LfoModel::load: tree " + std::to_string(t) +
            " splits on feature " + std::to_string(tree.split_feature(node)) +
            " of a " + std::to_string(dimension) + "-feature schema");
      }
    }
  }
  return LfoModel(std::move(model), config);
}

LfoModel LfoModel::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("LfoModel::load_file: cannot open " + path);
  }
  return load(is);
}

TrainResult train_on_window(std::span<const trace::Request> window,
                            const LfoConfig& config,
                            const LfoModel* serving) {
  if (window.empty()) {
    throw std::invalid_argument("train_on_window: empty window");
  }
  if (serving != nullptr && serving->feature_config() != config.features) {
    throw std::invalid_argument(
        "train_on_window: serving model expects another feature schema");
  }
  TrainResult result;

  auto t0 = Clock::now();
  opt::OptConfig opt_config = config.opt;
  opt_config.cache_size = config.cache_size;
  result.opt = opt::compute_opt(window, opt_config);
  result.opt_seconds = seconds_since(t0);

  features::DatasetBuildOptions build;
  build.features = config.features;
  build.cache_size = config.cache_size;
  const auto dataset = features::build_dataset(window, result.opt, build);
  result.num_samples = dataset.num_rows();
  if (serving != nullptr) {
    result.serving_confusion = score_rows(*serving, dataset, config.cutoff);
  }

  t0 = Clock::now();
  auto booster = gbdt::train(dataset, config.gbdt);
  result.train_seconds = seconds_since(t0);
  result.model = std::make_shared<const LfoModel>(
      std::move(booster), config.features,
      obs::summarize_rows(dataset.features_matrix(),
                          dataset.num_features()));
  result.train_confusion = score_rows(*result.model, dataset, config.cutoff);
  result.train_accuracy = result.train_confusion.accuracy();
  if (serving != nullptr && serving->training_summary().rows > 0) {
    result.drift = obs::feature_drift(serving->training_summary(),
                                      result.model->training_summary());
  }

  auto& candidate = result.candidate;
  candidate.train_accuracy = result.train_accuracy;
  const auto& confusion = result.train_confusion;
  if (confusion.total() > 0) {
    const auto total = static_cast<double>(confusion.total());
    candidate.model_admit_share =
        static_cast<double>(confusion.tp() + confusion.fp()) / total;
    candidate.opt_admit_share =
        static_cast<double>(confusion.tp() + confusion.fn()) / total;
  }
  if (result.drift) candidate.feature_drift = result.drift->mean_score;
  if (result.serving_confusion) {
    candidate.serving_accuracy = result.serving_confusion->accuracy();
  }
  return result;
}

util::BinaryConfusion evaluate_predictions(
    const LfoModel& model, std::span<const trace::Request> window,
    const opt::OptDecisions& opt, std::uint64_t cache_size, double cutoff) {
  LFO_TRACE_SPAN("evaluate_predictions");
  if (opt.cached.size() != window.size()) {
    throw std::invalid_argument(
        "evaluate_predictions: decisions/window mismatch");
  }
  features::DatasetBuildOptions build;
  build.features = model.feature_config();
  build.cache_size = cache_size;
  return score_rows(model, features::build_dataset(window, opt, build),
                    cutoff);
}

}  // namespace lfo::core

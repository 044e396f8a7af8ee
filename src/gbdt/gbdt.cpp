#include "gbdt/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <ostream>
#include <queue>
#include <stdexcept>
#include <utility>

#include "gbdt/flat_forest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lfo::gbdt {

double sigmoid(double x) {
  // exp(-|x|) never overflows; for x < 0 it is exp(x), and z / (1 + z)
  // is the two-branch form's negative half, bit for bit.
  const double z = std::exp(-std::abs(x));
  return (x >= 0 ? 1.0 : z) / (1.0 + z);
}

Model::Model(double base_score, std::vector<Tree> trees)
    : base_score_(base_score), trees_(std::move(trees)) {}

double Model::predict_raw(std::span<const float> features) const {
  double score = base_score_;
  for (const auto& t : trees_) score += t.predict(features);
  return score;
}

double Model::predict_proba(std::span<const float> features) const {
  return sigmoid(predict_raw(features));
}

std::vector<std::uint64_t> Model::split_counts(
    std::size_t num_features) const {
  std::vector<std::uint64_t> counts(num_features, 0);
  for (const auto& t : trees_) t.add_split_counts(counts);
  return counts;
}

std::vector<double> Model::split_shares(std::size_t num_features) const {
  const auto counts = split_counts(num_features);
  const double total = static_cast<double>(
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}));
  std::vector<double> shares(counts.size(), 0.0);
  if (total > 0) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      shares[i] = static_cast<double>(counts[i]) / total;
    }
  }
  return shares;
}

void Model::save(std::ostream& os) const {
  os.precision(17);
  os << "lfo-gbdt-model v1\n";
  os << base_score_ << ' ' << trees_.size() << '\n';
  for (const auto& t : trees_) t.save(os);
}

void Model::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("Model::save_file: cannot open " + path);
  save(os);
}

Model Model::load(std::istream& is) {
  std::string tag, version;
  is >> tag >> version;
  if (!is || tag != "lfo-gbdt-model" || version != "v1") {
    throw std::runtime_error("Model::load: bad header");
  }
  double base = 0.0;
  std::size_t count = 0;
  is >> base >> count;
  if (!is) throw std::runtime_error("Model::load: bad base score or count");
  // Trees are appended as they load, so a forged count cannot reserve
  // memory; a count past the file's end fails in Tree::load.
  std::vector<Tree> trees;
  for (std::size_t i = 0; i < count; ++i) trees.push_back(Tree::load(is));
  return Model(base, std::move(trees));
}

Model Model::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("Model::load_file: cannot open " + path);
  return load(is);
}

namespace {

/// Fixed-point gradient and hessian sums plus a row count: one histogram
/// bin, or the totals of a leaf or split side. Integer sums are exact and
/// independent of the order rows are added in, so a sibling histogram
/// derived as parent - child is exactly the one a direct build gives.
struct GradSum {
  std::int64_t g = 0;
  std::int64_t h = 0;
  std::uint32_t count = 0;

  GradSum& operator+=(const GradSum& o) {
    g += o.g;
    h += o.h;
    count += o.count;
    return *this;
  }
  GradSum& operator-=(const GradSum& o) {
    g -= o.g;
    h -= o.h;
    count -= o.count;
    return *this;
  }
  friend GradSum operator-(GradSum a, const GradSum& b) { return a -= b; }
  friend bool operator==(const GradSum&, const GradSum&) = default;
  friend std::ostream& operator<<(std::ostream& os, const GradSum& s) {
    return os << "{g=" << s.g << " h=" << s.h << " count=" << s.count
              << '}';
  }
};

/// One sampled row of a leaf with its round's fixed-point gradients,
/// kept in leaf order so histogram builds read gradients sequentially.
struct LeafRow {
  std::int64_t g;
  std::int64_t h;
  std::uint32_t row;
};

/// Power-of-two unit of one array's fixed-point values. Scaling by a
/// power of two is exact, so a value is rounded once, to the unit.
struct FixedPointUnit {
  double unit = 1.0;
  double inverse = 1.0;

  std::int64_t to_fixed(double x) const {
    return round_half_away(x * inverse);
  }
  double to_double(std::int64_t sum) const {
    return static_cast<double>(sum) * unit;
  }
};

/// The finest unit at which a sum over all of `values` still fits in
/// int64.
FixedPointUnit fixed_point_unit(std::span<const double> values) {
  double max_abs = 0.0;
  for (const double v : values) max_abs = std::max(max_abs, std::abs(v));
  // max_abs * n <= 2^exp, so |round(x / 2^(exp - 62))| summed over all n
  // rows is at most 2^62 + n/2 < 2^63.
  int exp = 0;
  std::frexp(max_abs * static_cast<double>(values.size()), &exp);
  return {std::ldexp(1.0, exp - 62), std::ldexp(1.0, 62 - exp)};
}

/// LightGBM's default minimum split gain, which the paper keeps (§2.3):
/// a split is taken only when its gain beats this strictly.
constexpr double kMinSplitGain = 0.0;

struct SplitInfo {
  double gain = kMinSplitGain;
  std::int32_t feature = -1;
  std::uint32_t bin = 0;  ///< go left when bin <= this
  GradSum left, right;

  bool valid() const { return feature >= 0; }
};

/// A grown leaf pending a potential split: rows are the [begin, end) slice
/// of the trainer's leaf-row array, and `hist` its histogram buffer.
struct LeafTask {
  std::int32_t node = 0;
  std::size_t begin = 0, end = 0;
  GradSum sum;
  std::int32_t depth = 0;
  std::uint32_t hist = 0;
  SplitInfo best;
};

struct GainLess {
  bool operator()(const LeafTask& a, const LeafTask& b) const {
    return a.best.gain < b.best.gain;
  }
};

class Trainer {
 public:
  Trainer(const Dataset& data, const Params& params)
      : data_(data),
        params_(params),
        binned_(data, kMaxBins),
        rng_(params.seed),
        scores_(data.num_rows(), 0.0),
        gradients_(data.num_rows(), 0.0),
        hessians_(data.num_rows(), 0.0),
        spill_(data.num_rows()) {
    if (params.objective == Objective::kBinaryLogistic) {
      // Base score: log-odds of the positive-label prior.
      double pos = 0.0;
      for (std::size_t r = 0; r < data.num_rows(); ++r) {
        pos += data.label(r) > 0.5f ? 1.0 : 0.0;
      }
      double p =
          pos / std::max<double>(1.0, static_cast<double>(data.num_rows()));
      p = std::clamp(p, 1e-6, 1.0 - 1e-6);
      base_score_ = std::log(p / (1.0 - p));
    } else {
      // Regression: base score = label mean.
      double sum = 0.0;
      for (std::size_t r = 0; r < data.num_rows(); ++r) sum += data.label(r);
      base_score_ =
          sum / std::max<double>(1.0, static_cast<double>(data.num_rows()));
    }
    std::fill(scores_.begin(), scores_.end(), base_score_);
  }

  Model run() {
    LFO_TRACE_SPAN("gbdt_train");
    std::vector<Tree> trees;
    trees.reserve(params_.num_iterations);
    for (std::uint32_t iter = 0; iter < params_.num_iterations; ++iter) {
      LFO_TRACE_SPAN("boost_round");
      LFO_COUNTER_INC("lfo_gbdt_boost_rounds_total");
      compute_gradients();
      trees.push_back(grow_tree());
    }
    return Model(base_score_, std::move(trees));
  }

 private:
  void compute_gradients() {
    if (params_.objective == Objective::kBinaryLogistic) {
      for (std::size_t r = 0; r < data_.num_rows(); ++r) {
        const double p = sigmoid(scores_[r]);
        const double y = data_.label(r) > 0.5f ? 1.0 : 0.0;
        gradients_[r] = p - y;
        hessians_[r] = std::max(p * (1.0 - p), 1e-12);
      }
    } else {
      // L2: loss = 1/2 (score - y)^2; gradient = residual, hessian = 1.
      for (std::size_t r = 0; r < data_.num_rows(); ++r) {
        gradients_[r] = scores_[r] - static_cast<double>(data_.label(r));
        hessians_[r] = 1.0;
      }
    }
    g_unit_ = fixed_point_unit(gradients_);
    h_unit_ = fixed_point_unit(hessians_);
  }

  std::vector<std::int32_t> sample_features() {
    const auto total = static_cast<std::int32_t>(data_.num_features());
    std::vector<std::int32_t> all(static_cast<std::size_t>(total));
    std::iota(all.begin(), all.end(), 0);
    if (params_.feature_fraction >= 1.0) return all;
    const auto want = std::max<std::size_t>(
        1, static_cast<std::size_t>(params_.feature_fraction *
                                    static_cast<double>(total)));
    // Partial Fisher-Yates.
    for (std::size_t i = 0; i < want; ++i) {
      const auto j = i + rng_.uniform(all.size() - i);
      std::swap(all[i], all[j]);
    }
    all.resize(want);
    return all;
  }

  std::vector<std::uint32_t> sample_rows() {
    const auto n = data_.num_rows();
    std::vector<std::uint32_t> rows;
    const bool bag = params_.bagging_fraction < 1.0;
    rows.reserve(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      // Bernoulli sampling keeps rows ordered, which the partitioning
      // does not require but keeps runs deterministic.
      if (bag && !rng_.bernoulli(params_.bagging_fraction)) continue;
      rows.push_back(r);
    }
    if (rows.empty()) {
      rows.push_back(static_cast<std::uint32_t>(rng_.uniform(n)));
    }
    return rows;
  }

  /// Lay out one histogram buffer for the tree's candidate features: the
  /// bins of features_[fi] start at offsets_[fi].
  void layout_histograms() {
    offsets_.assign(features_.size() + 1, 0);
    for (std::size_t fi = 0; fi < features_.size(); ++fi) {
      offsets_[fi + 1] =
          offsets_[fi] +
          binned_.feature_bins(static_cast<std::size_t>(features_[fi]))
              .num_bins();
    }
    free_hists_.clear();
    for (std::uint32_t i = 0; i < hists_.size(); ++i) free_hists_.push_back(i);
  }

  std::uint32_t acquire_histogram() {
    if (free_hists_.empty()) {
      free_hists_.push_back(static_cast<std::uint32_t>(hists_.size()));
      hists_.emplace_back();
    }
    const auto id = free_hists_.back();
    free_hists_.pop_back();
    hists_[id].resize(offsets_.back());
    return id;
  }

  void release_histogram(std::uint32_t id) { free_hists_.push_back(id); }

  GradSum* feature_histogram(std::uint32_t id, std::size_t fi) {
    return hists_[id].data() + offsets_[fi];
  }

  std::uint32_t feature_bins(std::size_t fi) const {
    return offsets_[fi + 1] - offsets_[fi];
  }

  /// Histograms of every candidate feature over leaf rows [begin, end),
  /// into buffer `id`, in one pass over the rows: each row's fixed-point
  /// g/h is read once and added to every feature's bin, and its bins are
  /// adjacent bytes. Sums are exact integers, so the order rows are added
  /// in cannot move a bin.
  void build_histograms(std::size_t begin, std::size_t end,
                        std::uint32_t id) {
    GradSum* hist = hists_[id].data();
    const std::size_t features = features_.size();
    std::fill(hist, hist + offsets_[features], GradSum{});
    for (std::size_t i = begin; i < end; ++i) {
      const LeafRow& lr = leaf_rows_[i];
      const auto bins = binned_.row(lr.row);
      for (std::size_t fi = 0; fi < features; ++fi) {
        hist[offsets_[fi] + bins[features_[fi]]] += {lr.g, lr.h, 1};
      }
    }
  }

  /// Debug check: a histogram accounts for exactly its leaf's rows and
  /// fixed-point mass. A mismatch means the binning, the row partition
  /// and the subtraction have diverged.
  void check_histogram([[maybe_unused]] std::size_t fi,
                       [[maybe_unused]] const GradSum* hist,
                       [[maybe_unused]] const GradSum& leaf,
                       [[maybe_unused]] const char* what) const {
#if LFO_DEBUG_CHECKS
    GradSum total;
    for (std::uint32_t b = 0; b < feature_bins(fi); ++b) total += hist[b];
    LFO_CHECK_EQ(total, leaf) << what << " histogram does not match its "
                              << "leaf (feature " << features_[fi] << ")";
#endif
  }

  /// Improve `best` with the splits of candidate feature `fi` for a leaf
  /// with totals `sum` and histogram `hist`. Features are scanned in
  /// order and strict > keeps the first of equal gains, so the chosen
  /// split is the first (feature, bin) with the leaf's highest gain.
  void scan_histogram(std::size_t fi, const GradSum* hist,
                      const GradSum& sum, SplitInfo& best) const {
    const double parent_obj = objective(sum);
    GradSum left;
    for (std::uint32_t b = 0; b + 1 < feature_bins(fi); ++b) {
      left += hist[b];
      const GradSum right = sum - left;
      if (left.count < params_.min_data_in_leaf ||
          right.count < params_.min_data_in_leaf) {
        continue;
      }
      const double gain = objective(left) + objective(right) - parent_obj;
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = features_[fi];
        best.bin = b;
        best.left = left;
        best.right = right;
      }
    }
  }

  /// Build the root's histogram and find its best split.
  void evaluate_root(LeafTask& root) {
    root.hist = acquire_histogram();
    build_histograms(root.begin, root.end, root.hist);
    for (std::size_t fi = 0; fi < features_.size(); ++fi) {
      const GradSum* hist = feature_histogram(root.hist, fi);
      check_histogram(fi, hist, root.sum, "root");
      scan_histogram(fi, hist, root.sum, root.best);
    }
  }

  /// Give the children of a split their histograms and best splits. The
  /// parent's buffer passes to the larger child; only the smaller child
  /// is built from its rows, and the larger one becomes parent - smaller,
  /// in place and exactly.
  void evaluate_children(std::uint32_t parent_hist, LeafTask& left,
                         LeafTask& right) {
    const bool left_smaller = left.sum.count <= right.sum.count;
    LeafTask& small = left_smaller ? left : right;
    LeafTask& large = left_smaller ? right : left;
    small.hist = acquire_histogram();
    large.hist = parent_hist;
    build_histograms(small.begin, small.end, small.hist);
    for (std::size_t fi = 0; fi < features_.size(); ++fi) {
      const GradSum* sh = feature_histogram(small.hist, fi);
      GradSum* lh = feature_histogram(large.hist, fi);
      for (std::uint32_t b = 0; b < feature_bins(fi); ++b) lh[b] -= sh[b];
      check_histogram(fi, sh, small.sum, "built");
      check_histogram(fi, lh, large.sum, "subtracted sibling");
      scan_histogram(fi, sh, small.sum, small.best);
      scan_histogram(fi, lh, large.sum, large.best);
    }
  }

  double objective(const GradSum& s) const {
    const double g = g_unit_.to_double(s.g);
    return g * g / (h_unit_.to_double(s.h) + kLambdaL2);
  }

  double output(const GradSum& s) const {
    return -g_unit_.to_double(s.g) /
           (h_unit_.to_double(s.h) + kLambdaL2) *
           params_.learning_rate;
  }

  Tree grow_tree() {
    const auto rows = sample_rows();
    features_ = sample_features();
    // A constant feature has one bin and no split.
    std::erase_if(features_, [&](std::int32_t f) {
      return binned_.feature_bins(static_cast<std::size_t>(f)).num_bins() < 2;
    });
    layout_histograms();
    const bool bagged = rows.size() != data_.num_rows();

    // Round this tree's gradients to fixed point, in leaf order.
    leaf_rows_.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto r = rows[i];
      leaf_rows_[i] = {g_unit_.to_fixed(gradients_[r]),
                       h_unit_.to_fixed(hessians_[r]), r};
    }
    GradSum root_sum;
    for (const auto& lr : leaf_rows_) root_sum += {lr.g, lr.h, 1};

    Tree tree(output(root_sum));
    // node -> which rows land there; maintained as slices of leaf_rows_.
    std::vector<std::pair<std::size_t, std::size_t>> node_rows = {
        {0, rows.size()}};
    std::priority_queue<LeafTask, std::vector<LeafTask>, GainLess> heap;
    LeafTask root;
    root.node = 0;
    root.begin = 0;
    root.end = rows.size();
    root.sum = root_sum;
    evaluate_root(root);
    if (root.best.valid()) heap.push(root);

    std::uint32_t leaves = 1;
    while (leaves < params_.num_leaves && !heap.empty()) {
      LeafTask task = heap.top();
      heap.pop();
      const auto& s = task.best;
      // A split only enters the heap when its gain beats kMinSplitGain.
      LFO_DCHECK_GE(s.gain, kMinSplitGain)
          << "split with sub-threshold gain escaped pruning";
      // Gradient mass is conserved across the split, exactly.
      LFO_DCHECK_EQ(s.left.g + s.right.g, task.sum.g)
          << "split lost gradient mass";
      LFO_DCHECK_EQ(s.left.h + s.right.h, task.sum.h)
          << "split lost hessian mass";
      // Partition the leaf's rows stably and branch-free: each row goes to
      // both cursors (left in place, right in spill_); one advances.
      const auto feature = static_cast<std::size_t>(s.feature);
      std::size_t mid = task.begin;
      std::size_t spilled = 0;
      for (std::size_t i = task.begin; i < task.end; ++i) {
        const LeafRow lr = leaf_rows_[i];
        const bool goes_left = binned_.bin(lr.row, feature) <= s.bin;
        leaf_rows_[mid] = lr;
        spill_[spilled] = lr;
        mid += goes_left;
        spilled += !goes_left;
      }
      std::copy_n(spill_.begin(), spilled,
                  leaf_rows_.begin() + static_cast<std::ptrdiff_t>(mid));
      LFO_DCHECK_EQ(mid - task.begin, s.left.count)
          << "partition disagrees with the split's histogram";

      const float threshold = binned_.split_value(
          static_cast<std::size_t>(s.feature), s.bin);
      const auto children = tree.split_leaf(task.node, s.feature, threshold,
                                            output(s.left), output(s.right));
      node_rows.resize(static_cast<std::size_t>(tree.num_nodes()));
      node_rows[static_cast<std::size_t>(children.left)] = {task.begin, mid};
      node_rows[static_cast<std::size_t>(children.right)] = {mid, task.end};
      ++leaves;

      // Children are evaluated only if they could still be split.
      if (leaves == params_.num_leaves ||
          (params_.max_depth >= 0 && task.depth + 1 >= params_.max_depth)) {
        release_histogram(task.hist);
        continue;
      }
      LeafTask left;
      left.node = children.left;
      left.begin = task.begin;
      left.end = mid;
      left.sum = s.left;
      left.depth = task.depth + 1;

      LeafTask right;
      right.node = children.right;
      right.begin = mid;
      right.end = task.end;
      right.sum = s.right;
      right.depth = task.depth + 1;

      evaluate_children(task.hist, left, right);
      for (const LeafTask* child : {&left, &right}) {
        if (child->best.valid()) {
          heap.push(*child);
        } else {
          release_histogram(child->hist);
        }
      }
    }

    // Update scores. Bagged-out rows still need their score refreshed so
    // future gradients see every tree, through a full prediction. Sampled
    // rows already sit in their leaf's slice: a bin at or below the split
    // bin holds exactly the values at or below its threshold, so the leaf
    // value is the one predict() would return.
    if (bagged) {
      for (std::size_t r = 0; r < data_.num_rows(); ++r) {
        scores_[r] += tree.predict(data_.row(r));
      }
    } else {
      for (std::int32_t node = 0; node < tree.num_nodes(); ++node) {
        if (!tree.is_leaf(node)) continue;
        const double value = tree.leaf_value(node);
        const auto [begin, end] = node_rows[static_cast<std::size_t>(node)];
        for (std::size_t i = begin; i < end; ++i) {
          const auto r = leaf_rows_[i].row;
          LFO_DCHECK_EQ(tree.predict(data_.row(r)), value)
              << "binned routing disagrees with the tree (row " << r << ")";
          scores_[r] += value;
        }
      }
    }
    return tree;
  }

  /// LightGBM's default, which the paper keeps (§2.3): no L2 leaf
  /// regularization. kMaxBins is the quantile bin cap per feature
  /// (BinnedDataset).
  static constexpr double kLambdaL2 = 0.0;
  static constexpr std::uint32_t kMaxBins = 64;

  const Dataset& data_;
  const Params& params_;
  BinnedDataset binned_;
  util::Rng rng_;
  double base_score_ = 0.0;
  std::vector<double> scores_;
  std::vector<double> gradients_;
  std::vector<double> hessians_;
  // This round's fixed-point units.
  FixedPointUnit g_unit_;
  FixedPointUnit h_unit_;
  // Per tree: sampled rows in leaf order (and the partition's buffer for
  // a split's right rows), candidate features, and a pool of histogram
  // buffers (one per open leaf, at most num_leaves).
  std::vector<LeafRow> leaf_rows_;
  std::vector<LeafRow> spill_;
  std::vector<std::int32_t> features_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::vector<GradSum>> hists_;
  std::vector<std::uint32_t> free_hists_;
};

}  // namespace

Model train(const Dataset& data, const Params& params) {
  if (data.num_rows() == 0) {
    throw std::invalid_argument("train: empty dataset");
  }
  if (params.num_leaves < 2) {
    throw std::invalid_argument("train: num_leaves must be >= 2");
  }
  return Trainer(data, params).run();
}

double logloss(const Model& model, const Dataset& data) {
  if (data.num_rows() == 0) return 0.0;
  const auto forest = FlatForest::compile(model);
  double loss = 0.0;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    const double p =
        std::clamp(forest.predict_proba(data.row(r)), 1e-15, 1.0 - 1e-15);
    const double y = data.label(r) > 0.5f ? 1.0 : 0.0;
    loss -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
  }
  return loss / static_cast<double>(data.num_rows());
}

double accuracy(const Model& model, const Dataset& data, double cutoff) {
  if (data.num_rows() == 0) return 0.0;
  return confusion(model, data, cutoff).accuracy();
}

util::BinaryConfusion confusion(const Model& model, const Dataset& data,
                                double cutoff) {
  util::BinaryConfusion out;
  const auto forest = FlatForest::compile(model);
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    out.add(forest.predict_proba(data.row(r)) >= cutoff,
            data.label(r) > 0.5f);
  }
  return out;
}

}  // namespace lfo::gbdt

// Figure 5a: false-positive and false-negative rates (as a share of all
// requests) of LFO's predictions versus OPT, as a function of the
// admission-likelihood cutoff. The paper finds a plateau between cutoffs
// .25 and .75, FN exploding below .25, FP exploding above .75, and a bias
// towards false positives (LFO admits conservatively) with the crossover
// near .65.
//
// Output: CSV series "cutoff,false_positive_share,false_negative_share,
// prediction_error".

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "features/dataset_builder.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

using namespace lfo;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {{"train-requests", "100000"},
                                {"eval-requests", "100000"},
                                {"seed", "1"},
                                {"cache-fraction", "0.05"},
                                {"steps", "19"}});
  std::cout << "# Figure 5a: FP/FN vs likelihood cutoff\n";
  args.print(std::cout);

  const auto train_n = args.get_u64("train-requests");
  const auto eval_n = args.get_u64("eval-requests");
  const auto trace = bench::standard_trace(train_n + eval_n,
                                           args.get_u64("seed"));
  const auto cache_size =
      bench::scaled_cache_size(trace, args.get_double("cache-fraction"));
  auto config = bench::standard_lfo_config(cache_size);
  config.features.thin_gaps = false;  // the paper's dense 53 features

  // Train on W[t], evaluate on W[t+1] (paper Fig 2).
  const auto train_window = trace.window(0, train_n);
  const auto eval_window = trace.window(train_n, eval_n);
  const auto trained = core::train_on_window(train_window, config);

  auto opt_config = config.opt;
  opt_config.cache_size = cache_size;
  const auto eval_opt = opt::compute_opt(eval_window, opt_config);

  // Predict once; sweep the cutoff over the cached probability vector.
  features::DatasetBuildOptions build;
  build.features = config.features;
  build.cache_size = cache_size;
  const auto dataset = features::build_dataset(eval_window, eval_opt, build);
  std::vector<double> probability(dataset.num_rows());
  for (std::size_t i = 0; i < dataset.num_rows(); ++i) {
    probability[i] = trained.model->predict(dataset.row(i));
  }

  util::CsvWriter csv(std::cout);
  csv.header({"cutoff", "false_positive_share", "false_negative_share",
              "prediction_error"});
  const auto steps = args.get_u64("steps");
  for (std::uint64_t s = 0; s < steps; ++s) {
    const double cutoff =
        0.05 + 0.9 * static_cast<double>(s) / static_cast<double>(steps - 1);
    util::BinaryConfusion confusion;
    for (std::size_t i = 0; i < probability.size(); ++i) {
      confusion.add(probability[i] >= cutoff, dataset.label(i) > 0.5f);
    }
    csv.field(cutoff)
        .field(confusion.false_positive_share())
        .field(confusion.false_negative_share())
        .field(1.0 - confusion.accuracy())
        .end_row();
  }
  std::cout << "# expected shape: a flat error basin over mid-range "
               "cutoffs; the accidentally-admitted share (FP) explodes at "
               "low cutoffs and the accidentally-rejected share (FN) at "
               "high cutoffs. (The paper's Fig 5a shows the same plateau; "
               "its prose swaps the two labels relative to these "
               "definitions.)\n";
  return 0;
}

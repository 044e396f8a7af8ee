// Figure 5b: prediction error versus training-set size W, repeated over
// several random trace subsets. The paper reports error below 6.5% at 10K
// samples, a slight decrease until ~100K, and tighter variance with larger
// training sets.
//
// Output: CSV "train_samples,subset,prediction_error" (one row per
// repetition) followed by per-size mean/stddev summary rows.

#include <iostream>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

using namespace lfo;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {{"eval-requests", "50000"},
                                {"subsets", "6"},
                                {"seed", "1"},
                                {"cache-fraction", "0.05"},
                                {"max-train", "300000"}});
  std::cout << "# Figure 5b: prediction error vs training set size\n";
  args.print(std::cout);

  const auto eval_n = args.get_u64("eval-requests");
  const auto subsets = args.get_u64("subsets");
  const auto max_train = args.get_u64("max-train");

  util::CsvWriter csv(std::cout);
  csv.header({"train_samples", "subset", "prediction_error"});

  std::vector<std::pair<std::uint64_t, util::RunningStats>> summary;
  for (const std::uint64_t train_n :
       {std::uint64_t{10000}, std::uint64_t{30000}, std::uint64_t{100000},
        std::uint64_t{300000}}) {
    if (train_n > max_train) continue;
    util::RunningStats stats;
    for (std::uint64_t subset = 0; subset < subsets; ++subset) {
      // Each subset is an independent draw of the workload (the paper
      // samples random subsets of its production trace).
      const auto trace = bench::standard_trace(
          train_n + eval_n, args.get_u64("seed") + subset * 7919);
      const auto cache_size = bench::scaled_cache_size(
          trace, args.get_double("cache-fraction"));
      auto config = bench::standard_lfo_config(cache_size);
      config.features.thin_gaps = false;  // the paper's dense 53 features
      config.gbdt.seed = subset + 1;

      const auto trained =
          core::train_on_window(trace.window(0, train_n), config);
      auto opt_config = config.opt;
      const auto eval_window = trace.window(train_n, eval_n);
      const auto eval_opt = opt::compute_opt(eval_window, opt_config);
      const auto confusion = core::evaluate_predictions(
          *trained.model, eval_window, eval_opt, cache_size, config.cutoff);
      const double error = 1.0 - confusion.accuracy();
      stats.add(error);
      csv.field(train_n).field(subset).field(error).end_row();
    }
    summary.emplace_back(train_n, stats);
  }

  std::cout << "# summary: train_samples,mean_error,stddev\n";
  for (const auto& [n, stats] : summary) {
    std::cout << "# " << n << "," << stats.mean() << "," << stats.stddev()
              << '\n';
  }
  std::cout << "# expected shape: error already low at 10K samples, "
               "decaying slightly and stabilizing by ~100K\n";
  return 0;
}

// Figure 5c: prediction error across random seeds and trace subsets. The
// paper runs 100 seeds on 100 subsets and finds the error confined to a
// ~.5% band — the robustness argument against model-free RL's seed
// sensitivity.
//
// Output: CSV "run,gbdt_seed,trace_seed,prediction_error" plus a summary
// with min/max/spread.

#include <iostream>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

using namespace lfo;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {{"train-requests", "40000"},
                                {"eval-requests", "40000"},
                                {"runs", "30"},
                                {"seed", "1"},
                                {"cache-fraction", "0.05"}});
  std::cout << "# Figure 5c: prediction error across random seeds\n";
  args.print(std::cout);

  const auto train_n = args.get_u64("train-requests");
  const auto eval_n = args.get_u64("eval-requests");
  const auto runs = args.get_u64("runs");

  util::CsvWriter csv(std::cout);
  csv.header({"mode", "run", "gbdt_seed", "trace_seed",
              "prediction_error"});

  // Two sweeps, separating the paper's claim (seed robustness) from
  // workload variability:
  //  - "seed": fixed trace, vary only the learner's random seed
  //    (bagging/feature sampling at 0.9 so the seed matters at all);
  //  - "subset": fixed seed, vary the trace draw.
  util::RunningStats seed_stats, subset_stats;
  const auto run_one = [&](const std::string& mode, std::uint64_t run,
                           std::uint64_t gbdt_seed,
                           std::uint64_t trace_seed,
                           util::RunningStats& stats) {
    const auto trace = bench::standard_trace(train_n + eval_n, trace_seed);
    const auto cache_size =
        bench::scaled_cache_size(trace, args.get_double("cache-fraction"));
    auto config = bench::standard_lfo_config(cache_size);
    config.features.thin_gaps = false;  // the paper's dense 53 features
    config.gbdt.seed = gbdt_seed;
    config.gbdt.bagging_fraction = 0.9;
    config.gbdt.feature_fraction = 0.9;

    const auto trained =
        core::train_on_window(trace.window(0, train_n), config);
    const auto eval_window = trace.window(train_n, eval_n);
    const auto eval_opt = opt::compute_opt(eval_window, config.opt);
    const auto confusion = core::evaluate_predictions(
        *trained.model, eval_window, eval_opt, cache_size, config.cutoff);
    const double error = 1.0 - confusion.accuracy();
    stats.add(error);
    csv.field(mode)
        .field(run)
        .field(gbdt_seed)
        .field(trace_seed)
        .field(error)
        .end_row();
  };

  for (std::uint64_t run = 0; run < runs; ++run) {
    run_one("seed", run, run + 1, args.get_u64("seed"), seed_stats);
  }
  for (std::uint64_t run = 0; run < runs; ++run) {
    run_one("subset", run, 1, args.get_u64("seed") + run * 104729,
            subset_stats);
  }

  const auto summarize = [](const char* label,
                            const util::RunningStats& stats) {
    std::cout << "# " << label << ": mean=" << stats.mean()
              << " stddev=" << stats.stddev() << " min=" << stats.min()
              << " max=" << stats.max()
              << " spread=" << stats.max() - stats.min() << '\n';
  };
  summarize("seed-only spread", seed_stats);
  summarize("subset spread", subset_stats);
  std::cout << "# expected shape: seed-only spread well under 1% (the "
               "paper reports ~0.5%); workload-subset spread dominates\n";
  return 0;
}

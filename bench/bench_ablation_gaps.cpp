// Ablation suggested by the paper's Fig 8 discussion: the paper's dense
// gaps 1..N against the default log-spaced schema (every gap to 8, then
// 2^k and 3*2^k), and the tracked history depth. Reports prediction
// error and training time per configuration.
//
// Output: CSV "config,num_features,prediction_error,train_seconds".

#include <iostream>

#include "bench_common.hpp"
#include "util/csv.hpp"

using namespace lfo;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {{"train-requests", "60000"},
                                {"eval-requests", "60000"},
                                {"seed", "1"},
                                {"cache-fraction", "0.05"}});
  std::cout << "# Ablation: gap schema (dense vs log-spaced) and history "
               "depth\n";
  args.print(std::cout);

  const auto train_n = args.get_u64("train-requests");
  const auto eval_n = args.get_u64("eval-requests");
  const auto trace =
      bench::standard_trace(train_n + eval_n, args.get_u64("seed"));
  const auto cache_size =
      bench::scaled_cache_size(trace, args.get_double("cache-fraction"));

  struct Variant {
    std::string name;
    std::uint32_t num_gaps;
    bool thin;
  };
  const Variant variants[] = {
      {"gaps50-full", 50, false}, {"gaps50-logspaced", 50, true},
      {"gaps32-logspaced", 32, true}, {"gaps16-full", 16, false},
      {"gaps16-logspaced", 16, true}, {"gaps4-full", 4, false},
      {"gaps1", 1, false},
  };

  util::CsvWriter csv(std::cout);
  csv.header({"config", "num_features", "prediction_error",
              "train_seconds"});
  for (const auto& v : variants) {
    auto config = bench::standard_lfo_config(cache_size);
    config.features.num_gaps = v.num_gaps;
    config.features.thin_gaps = v.thin;

    const auto trained =
        core::train_on_window(trace.window(0, train_n), config);
    const auto eval_window = trace.window(train_n, eval_n);
    const auto eval_opt = opt::compute_opt(eval_window, config.opt);
    const auto confusion = core::evaluate_predictions(
        *trained.model, eval_window, eval_opt, cache_size, config.cutoff);
    csv.field(v.name)
        .field(config.features.dimension())
        .field(1.0 - confusion.accuracy())
        .field(trained.train_seconds)
        .end_row();
  }
  std::cout << "# expected shape: log-spacing shrinks training time with "
               "only a small accuracy penalty; very short histories cost "
               "accuracy\n";
  return 0;
}

// "Policy design" ablation — the paper's §5 open question: how should a
// predicted likelihood ranking be translated into a caching policy? The
// eviction rule is fixed (core::LfoCache: sampled eviction over LRU
// order by each entry's latest likelihood); this bench ablates the admission
// cutoff: default .5 vs the auto-tuned equal-error cutoff.
//
// Output: CSV "variant,cutoff,bhr,ohr,bypassed".

#include <iostream>

#include "bench_common.hpp"
#include "core/lfo_cache.hpp"
#include "core/tuning.hpp"
#include "util/csv.hpp"

using namespace lfo;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {{"requests", "160000"},
                                {"train-requests", "40000"},
                                {"seed", "1"},
                                {"cache-fraction", "0.05"}});
  std::cout << "# Ablation: policy design (paper section 5)\n";
  args.print(std::cout);

  const auto train_n = args.get_u64("train-requests");
  const auto trace =
      bench::standard_trace(args.get_u64("requests"), args.get_u64("seed"));
  const auto cache_size =
      bench::scaled_cache_size(trace, args.get_double("cache-fraction"));
  const auto config = bench::standard_lfo_config(cache_size);

  // One shared model trained on the head of the trace; every variant
  // serves the remainder with identical predictions.
  const auto train_window = trace.window(0, train_n);
  const auto trained = core::train_on_window(train_window, config);
  const auto tuning = core::tune_cutoff(*trained.model, train_window,
                                        trained.opt, cache_size);
  std::cout << "# tuned equal-error cutoff = " << tuning.equal_error_cutoff
            << ", min-error cutoff = " << tuning.min_error_cutoff << '\n';

  struct Variant {
    const char* name;
    double cutoff;
  };
  const Variant variants[] = {{"default-cutoff", config.cutoff},
                              {"tuned-cutoff", tuning.equal_error_cutoff}};

  util::CsvWriter csv(std::cout);
  csv.header({"variant", "cutoff", "bhr", "ohr", "bypassed"});
  for (const auto& v : variants) {
    core::LfoCache cache(cache_size, config.features, v.cutoff);
    cache.swap_model(trained.model);
    for (const auto& r : trace.window(train_n, trace.size())) {
      cache.access(r);
    }
    csv.field(v.name)
        .field(v.cutoff)
        .field(cache.stats().bhr())
        .field(cache.stats().ohr())
        .field(cache.bypassed())
        .end_row();
  }
  std::cout << "# expected shape: cutoff tuning trades FP for FN\n";
  return 0;
}

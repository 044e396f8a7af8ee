// Figure 8: relative importance of LFO's features, measured as the share
// of decision-tree branches splitting on each feature. The paper finds:
// object size dominates (~28%), free cache space ~10%, gaps 1-4 heavily
// used, gaps up to ~16 still significant, sporadic use of higher gaps,
// and the cost feature unused (it is redundant with size under the BHR
// cost model).
//
// Output: CSV "feature,splits,share" in feature order.

#include <iostream>

#include "bench_common.hpp"
#include "util/csv.hpp"

using namespace lfo;

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {{"train-requests", "150000"},
                                {"seed", "1"},
                                {"cache-fraction", "0.05"}});
  std::cout << "# Figure 8: feature importance (share of tree splits)\n";
  args.print(std::cout);

  const auto trace =
      bench::standard_trace(args.get_u64("train-requests"),
                            args.get_u64("seed"));
  const auto cache_size =
      bench::scaled_cache_size(trace, args.get_double("cache-fraction"));
  // The paper's dense 53 features: Fig 8 asks which gaps carry splits.
  auto config = bench::standard_lfo_config(cache_size);
  config.features.thin_gaps = false;

  const auto trained = core::train_on_window(
      trace.window(0, trace.size()), config);

  util::CsvWriter csv(std::cout);
  csv.header({"feature", "splits", "share"});
  double size_share = 0, cost_share = 0, free_share = 0, gap1_4 = 0;
  for (const auto& f : trained.model->feature_importance()) {
    csv.field(f.name).field(f.splits).field(f.share).end_row();
    if (f.name == "size") size_share = f.share;
    if (f.name == "cost") cost_share = f.share;
    if (f.name == "free") free_share = f.share;
    if (f.name == "gap1" || f.name == "gap2" || f.name == "gap3" ||
        f.name == "gap4") {
      gap1_4 += f.share;
    }
  }
  std::cout << "# size=" << size_share << " cost=" << cost_share
            << " free=" << free_share << " gaps1-4=" << gap1_4 << '\n';
  std::cout << "# expected shape: size dominates; cost ~0 (redundant with "
               "size under BHR costs); free space significant; early gaps "
               "heavily used with a long usable tail\n";
  return 0;
}

#include "sim/sweep.hpp"

#include <algorithm>

#include "cache/factory.hpp"
#include "opt/opt.hpp"
#include "sim/simulator.hpp"
#include "util/csv.hpp"

namespace lfo::sim {

std::vector<HrcPoint> sweep_hit_ratio_curves(const trace::Trace& trace,
                                             const SweepConfig& config) {
  std::vector<HrcPoint> points;
  const auto unique = trace.unique_bytes();
  for (const double fraction : config.cache_fractions) {
    const auto cache_size = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(unique) *
                                      fraction));
    for (const auto& name : config.policies) {
      points.push_back({name, cache_size, fraction});
    }
    if (config.include_opt) points.push_back({"OPT", cache_size, fraction});
  }

  for (auto& point : points) {
    if (point.policy == "OPT") {
      opt::OptConfig oc;
      oc.cache_size = point.cache_size;
      oc.mode = opt::OptMode::kGreedyPacking;
      const auto d = opt::compute_opt(
          std::span<const trace::Request>(trace.requests()), oc);
      point.bhr = d.bhr;
      point.ohr = d.ohr;
    } else {
      auto policy = cache::make_policy(point.policy, point.cache_size,
                                       config.seed);
      const auto r = simulate_policy(*policy, trace);
      point.bhr = r.bhr;
      point.ohr = r.ohr;
    }
  }
  return points;
}

void write_hrc_csv(std::ostream& os, const std::vector<HrcPoint>& points) {
  util::CsvWriter csv(os);
  csv.header({"policy", "cache_fraction", "cache_bytes", "bhr", "ohr"});
  for (const auto& p : points) {
    csv.field(p.policy)
        .field(p.cache_fraction)
        .field(p.cache_size)
        .field(p.bhr)
        .field(p.ohr)
        .end_row();
  }
}

}  // namespace lfo::sim

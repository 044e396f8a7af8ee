// Policy playground: run any caching policy (or all of them) over a trace
// and report hit ratios — the counterpart of webcachesim's CLI.
//
// Usage:
//   policy_playground                         # all policies, synthetic mix
//   policy_playground --policy=GDSF           # one policy
//   policy_playground --trace=reqs.txt --cache-mb=64 --policy=all
//
// Text trace format: "object size [cost]" per line, '#' comments. A
// malformed value or an unknown option prints the usage line and exits 2.

#include <algorithm>
#include <iostream>
#include <string>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/trace_stats.hpp"
#include "util/strings.hpp"

namespace {

int usage() {
  std::cerr << "usage: policy_playground [--trace=FILE] [--policy=NAME|"
               "all] [--cache-mb=N] [--requests=N] [--seed=N]\n"
               "known policies:";
  for (const auto& name : lfo::cache::policy_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfo;

  std::string trace_path;
  std::string policy = "all";
  std::uint64_t cache_mb = 0;  // 0 = 5% of unique bytes
  std::uint64_t requests = 150000;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::size_t prefix) { return arg.substr(prefix); };
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = value(8);
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy = value(9);
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      const auto parsed = util::parse_uint(value(11));
      if (!parsed) return usage();
      cache_mb = *parsed;
    } else if (arg.rfind("--requests=", 0) == 0) {
      const auto parsed = util::parse_uint(value(11));
      if (!parsed) return usage();
      requests = *parsed;
    } else if (arg.rfind("--seed=", 0) == 0) {
      const auto parsed = util::parse_uint(value(7));
      if (!parsed) return usage();
      seed = *parsed;
    } else {
      return usage();
    }
  }

  trace::Trace t;
  if (!trace_path.empty()) {
    t = trace::read_text_trace_file(trace_path);
  } else {
    trace::GeneratorConfig config;
    config.num_requests = requests;
    config.seed = seed;
    config.classes = trace::production_mix(0.05);
    t = trace::generate_trace(config);
  }
  std::cout << "workload: " << trace::compute_stats(t) << '\n';

  const std::uint64_t cache_size =
      cache_mb ? cache_mb * (1ULL << 20) : t.unique_bytes() / 20;
  std::cout << "cache: " << util::format_bytes(cache_size) << "\n\n";

  std::vector<sim::PolicyResult> results;
  if (policy == "all") {
    for (const auto& name : cache::policy_names()) {
      auto p = cache::make_policy(name, cache_size, seed);
      results.push_back(sim::simulate_policy(*p, t));
    }
    std::sort(results.begin(), results.end(),
              [](const auto& a, const auto& b) { return a.bhr > b.bhr; });
  } else {
    auto p = cache::make_policy(policy, cache_size, seed);
    results.push_back(sim::simulate_policy(*p, t));
  }
  sim::print_comparison(std::cout, results);
  return 0;
}

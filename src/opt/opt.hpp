#ifndef LFO_OPT_OPT_HPP
#define LFO_OPT_OPT_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "opt/flow_builder.hpp"
#include "trace/trace.hpp"

namespace lfo::opt {

/// How OPT's decisions are computed.
enum class OptMode {
  /// Exact min-cost flow over the whole window (paper Fig 4). The gold
  /// standard, but solving graphs with millions of nodes takes hours
  /// (paper §2.1), so use it for windows up to a few tens of thousands
  /// of requests.
  kExactMcf,
  /// The paper's contribution: rank intervals by C_i / (S_i * L_i) and run
  /// the exact solver only for the top-ranked fraction; the tail is
  /// treated as not cached. Saves ~90% of the computation.
  kRankSplitMcf,
  /// The time-axis splitting of [Berger et al. 2018]: solve fixed-length
  /// segments independently; intervals crossing a segment boundary are
  /// conservatively labeled not cached.
  kIntervalSplitMcf,
  /// Fast greedy interval packing (PFOO-l flavour): admit intervals in
  /// decreasing value-density order while capacity remains along their
  /// whole span. O(n log n); a feasible schedule, hence a lower bound
  /// on OPT. Default for large windows.
  kGreedyPacking,
};

struct OptConfig {
  std::uint64_t cache_size = 1ULL << 30;
  OptMode mode = OptMode::kExactMcf;
  /// kRankSplitMcf: fraction of intervals solved exactly (by rank).
  double rank_keep_fraction = 0.2;
  /// kIntervalSplitMcf: segment length in requests.
  std::size_t segment_length = 8192;
};

/// OPT's decisions for one window plus the resulting offline hit ratios.
struct OptDecisions {
  /// Per request i: 1 iff OPT keeps the object cached from i until its next
  /// request (so that next request is a hit). Always 0 for an object's
  /// last request in the window (no further hit is possible).
  std::vector<std::uint8_t> cached;
  /// MCF modes: fraction of the object's bytes routed along the central
  /// (cached) path for the interval starting at i; in [0,1]. Greedy mode
  /// reports 0/1. `cached[i] == 1` iff fraction == 1 (strict reading of
  /// the paper: all bytes on the central path).
  std::vector<float> cache_fraction;

  // Offline performance of the decision schedule (strict decisions):
  std::uint64_t hit_requests = 0;
  std::uint64_t hit_bytes = 0;
  std::uint64_t total_requests = 0;
  std::uint64_t total_bytes = 0;
  double bhr = 0.0;
  double ohr = 0.0;
  /// BHR of the fractional MCF relaxation (an upper bound on achievable
  /// OPT; equals `bhr` when the solution is fully integral).
  double bhr_upper = 0.0;
  double ohr_upper = 0.0;

  std::size_t num_intervals = 0;
  std::size_t solver_augmentations = 0;
  double solve_seconds = 0.0;
};

/// Compute OPT's decisions for a request window.
OptDecisions compute_opt(std::span<const trace::Request> reqs,
                         const OptConfig& config);

/// The paper's ranking function C_i / (S_i * L_i): value per byte-timestep
/// of caching interval `iv`. Higher = more valuable to the cache.
double interval_rank(const Interval& iv);

std::string to_string(OptMode mode);

}  // namespace lfo::opt

#endif  // LFO_OPT_OPT_HPP

#ifndef LFO_SIM_SWEEP_HPP
#define LFO_SIM_SWEEP_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace lfo::sim {

/// One point of a hit-ratio curve (HRC): a policy's performance at one
/// cache size.
struct HrcPoint {
  std::string policy;
  std::uint64_t cache_size = 0;
  double cache_fraction = 0.0;  ///< of the trace's unique bytes
  double bhr = 0.0;
  double ohr = 0.0;
};

/// Configuration of a cache-size sweep. Cache sizes are expressed as
/// fractions of the trace footprint, the standard presentation in the
/// caching literature (AdaptSize, LHD, PBO all plot HRCs this way).
struct SweepConfig {
  std::vector<std::string> policies{"LRU", "S4LRU", "GDSF", "LHD"};
  std::vector<double> cache_fractions{0.01, 0.02, 0.05, 0.1, 0.2, 0.5};
  std::uint64_t seed = 1;
  /// Also sweep the offline OPT bound (greedy packing mode).
  bool include_opt = true;
};

/// Replay the trace once per (policy, size), plus the OPT bound per size,
/// and collect the curves: for each size, the policies in config order,
/// then OPT. The replays run one after another on the calling thread.
/// Throws std::invalid_argument for a policy name make_policy does not
/// know.
std::vector<HrcPoint> sweep_hit_ratio_curves(const trace::Trace& trace,
                                             const SweepConfig& config);

/// Emit the sweep as CSV: policy,cache_fraction,cache_bytes,bhr,ohr.
void write_hrc_csv(std::ostream& os, const std::vector<HrcPoint>& points);

}  // namespace lfo::sim

#endif  // LFO_SIM_SWEEP_HPP

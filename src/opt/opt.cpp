#include "opt/opt.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "mincostflow/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "opt/segment_tree.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace lfo::opt {

namespace {

// lfo-lint: allow(nondet): wall-clock diagnostics only, never decisions
using Clock = std::chrono::steady_clock;

/// Fill hit totals from per-interval decisions.
void finalize_metrics(std::span<const trace::Request> reqs,
                      OptDecisions& out) {
  // The decision schedule must cover the window exactly: one decision per
  // request, one fraction per request.
  LFO_CHECK_EQ(out.cached.size(), reqs.size())
      << "OPT decision vector length != window length";
  LFO_CHECK_EQ(out.cache_fraction.size(), reqs.size())
      << "OPT fraction vector length != window length";
  out.total_requests = reqs.size();
  out.total_bytes = 0;
  out.hit_requests = 0;
  out.hit_bytes = 0;
  double frac_hits = 0.0;
  double frac_bytes = 0.0;
  for (const auto& r : reqs) out.total_bytes += r.size;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // Decision at i produces a hit at the *next* request of the object,
    // which contributes the object's size once.
    if (out.cached[i]) {
      ++out.hit_requests;
      out.hit_bytes += reqs[i].size;
    }
    const double f = out.cache_fraction[i];
    frac_hits += f;
    frac_bytes += f * static_cast<double>(reqs[i].size);
  }
  out.bhr = out.total_bytes
                ? static_cast<double>(out.hit_bytes) /
                      static_cast<double>(out.total_bytes)
                : 0.0;
  out.ohr = out.total_requests
                ? static_cast<double>(out.hit_requests) /
                      static_cast<double>(out.total_requests)
                : 0.0;
  out.bhr_upper =
      out.total_bytes ? frac_bytes / static_cast<double>(out.total_bytes) : 0.0;
  out.ohr_upper = out.total_requests
                      ? frac_hits / static_cast<double>(out.total_requests)
                      : 0.0;
}

/// Solve one window exactly (optionally with a keep mask) and record the
/// per-interval decisions into `out` at interval start indices offset by
/// `base`.
void solve_mcf_window(std::span<const trace::Request> reqs,
                      const OptConfig& config,
                      std::span<const Interval> intervals,
                      std::span<const std::uint8_t> keep, std::size_t base,
                      OptDecisions& out) {
  if (reqs.size() < 2 || intervals.empty()) return;
  // Integer scaling of per-byte costs (see build_flow_problem).
  constexpr std::int64_t kCostScale = 1 << 16;
  auto problem = build_flow_problem(reqs, config.cache_size, kCostScale,
                                    intervals, keep);
  const auto result =
      mcmf::solve_min_cost_flow(problem.graph, problem.supplies);
  if (!result.feasible) {
    // Cannot happen: every interval can always route over its own bypass.
    throw std::logic_error("compute_opt: infeasible flow problem");
  }
  out.solver_augmentations += result.augmentations;
  for (std::size_t k = 0; k < intervals.size(); ++k) {
    const auto edge = problem.bypass_edges[k];
    if (edge < 0) continue;  // masked out by rank-splitting
    const auto bypass_flow = problem.graph.flow(edge);
    const auto& iv = intervals[k];
    const double fraction =
        1.0 - static_cast<double>(bypass_flow) / static_cast<double>(iv.size);
    // The bypass edge carries between 0 and the full object size.
    LFO_DCHECK_GE(bypass_flow, 0);
    LFO_DCHECK_LE(bypass_flow, static_cast<mcmf::Flow>(iv.size));
    out.cache_fraction[base + iv.start] = static_cast<float>(fraction);
    out.cached[base + iv.start] = bypass_flow == 0 ? 1 : 0;
  }
}

void solve_exact(std::span<const trace::Request> reqs, const OptConfig& config,
                 OptDecisions& out) {
  const auto intervals = build_intervals(reqs);
  out.num_intervals = intervals.size();
  solve_mcf_window(reqs, config, intervals, {}, 0, out);
}

void solve_rank_split(std::span<const trace::Request> reqs,
                      const OptConfig& config, OptDecisions& out) {
  const auto intervals = build_intervals(reqs);
  out.num_intervals = intervals.size();
  if (intervals.empty()) return;
  // Keep the top `rank_keep_fraction` intervals by C_i/(S_i*L_i).
  std::vector<std::size_t> order(intervals.size());
  std::iota(order.begin(), order.end(), 0);
  const auto keep_count = static_cast<std::size_t>(std::max<double>(
      1.0,
      config.rank_keep_fraction * static_cast<double>(intervals.size())));
  auto rank_of = [&](std::size_t k) { return interval_rank(intervals[k]); };
  if (keep_count < order.size()) {
    std::nth_element(order.begin(), order.begin() + keep_count - 1,
                     order.end(), [&](std::size_t a, std::size_t b) {
                       return rank_of(a) > rank_of(b);
                     });
  }
  std::vector<std::uint8_t> keep(intervals.size(), 0);
  for (std::size_t i = 0; i < std::min(keep_count, order.size()); ++i) {
    keep[order[i]] = 1;
  }
  solve_mcf_window(reqs, config, intervals, keep, 0, out);
}

void solve_interval_split(std::span<const trace::Request> reqs,
                          const OptConfig& config, OptDecisions& out) {
  const std::size_t seg = std::max<std::size_t>(2, config.segment_length);
  for (std::size_t begin = 0; begin < reqs.size(); begin += seg) {
    const std::size_t len = std::min(seg, reqs.size() - begin);
    const auto window = reqs.subspan(begin, len);
    // Intervals are rebuilt per segment: pairs crossing the boundary do not
    // appear and thus stay "not cached" (the conservative approximation
    // of [Berger et al. 2018]).
    const auto intervals = build_intervals(window);
    out.num_intervals += intervals.size();
    solve_mcf_window(window, config, intervals, {}, begin, out);
  }
}

void solve_greedy(std::span<const trace::Request> reqs,
                  const OptConfig& config, OptDecisions& out) {
  auto intervals = build_intervals(reqs);
  out.num_intervals = intervals.size();
  if (intervals.empty() || reqs.size() < 2) return;
  // Sort by value density (cost per byte-timestep), descending; break ties
  // in favour of shorter intervals, which free capacity sooner.
  std::vector<std::size_t> order(intervals.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ra = interval_rank(intervals[a]);
    const double rb = interval_rank(intervals[b]);
    if (ra != rb) return ra > rb;
    const auto la = intervals[a].end - intervals[a].start;
    const auto lb = intervals[b].end - intervals[b].start;
    return la < lb;
  });
  MinSegmentTree capacity(reqs.size() - 1,
                          static_cast<std::int64_t>(config.cache_size));
  for (const std::size_t k : order) {
    const auto& iv = intervals[k];
    const auto avail = capacity.range_min(iv.start, iv.end);
    if (avail >= static_cast<std::int64_t>(iv.size)) {
      capacity.range_add(iv.start, iv.end,
                         -static_cast<std::int64_t>(iv.size));
      out.cached[iv.start] = 1;
      out.cache_fraction[iv.start] = 1.0f;
    }
  }
}

}  // namespace

double interval_rank(const Interval& iv) {
  const auto length = static_cast<double>(iv.end - iv.start);
  return iv.cost / (static_cast<double>(iv.size) * length);
}

OptDecisions compute_opt(std::span<const trace::Request> reqs,
                         const OptConfig& config) {
  if (config.cache_size == 0) {
    throw std::invalid_argument("compute_opt: zero cache size");
  }
  LFO_TRACE_SPAN("opt_solve");
  LFO_COUNTER_INC("lfo_opt_solves_total");
  OptDecisions out;
  out.cached.assign(reqs.size(), 0);
  out.cache_fraction.assign(reqs.size(), 0.0f);
  const auto start = Clock::now();
  switch (config.mode) {
    case OptMode::kExactMcf:
      solve_exact(reqs, config, out);
      break;
    case OptMode::kRankSplitMcf:
      solve_rank_split(reqs, config, out);
      break;
    case OptMode::kIntervalSplitMcf:
      solve_interval_split(reqs, config, out);
      break;
    case OptMode::kGreedyPacking:
      solve_greedy(reqs, config, out);
      break;
  }
  out.solve_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  LFO_HISTOGRAM_OBSERVE_SECONDS("lfo_opt_solve_seconds", out.solve_seconds);
  finalize_metrics(reqs, out);
  LFO_DCHECK_LE(out.hit_requests, out.total_requests);
  LFO_DCHECK_LE(out.hit_bytes, out.total_bytes);
  // The fractional relaxation upper-bounds the integral schedule.
  LFO_DCHECK_GE(out.bhr_upper, out.bhr - 1e-9);
  LFO_DCHECK_GE(out.ohr_upper, out.ohr - 1e-9);
  return out;
}

std::string to_string(OptMode mode) {
  switch (mode) {
    case OptMode::kExactMcf: return "exact-mcf";
    case OptMode::kRankSplitMcf: return "rank-split-mcf";
    case OptMode::kIntervalSplitMcf: return "interval-split-mcf";
    case OptMode::kGreedyPacking: return "greedy-packing";
  }
  return "unknown";
}

}  // namespace lfo::opt

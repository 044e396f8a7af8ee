#ifndef LFO_BENCH_COMMON_HPP
#define LFO_BENCH_COMMON_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/lfo_model.hpp"
#include "trace/generator.hpp"
#include "trace/trace.hpp"

namespace lfo::bench {

/// Tiny --key=value command-line parser shared by the figure harnesses.
/// Unknown keys abort with a usage message listing the known ones.
/// Every bench accepts the built-in `--json=<path>` key (default empty):
/// harnesses that support it write a machine-readable result summary
/// there (see JsonDoc below).
class Args {
 public:
  Args(int argc, char** argv,
       std::map<std::string, std::string> defaults);

  std::uint64_t get_u64(const std::string& key) const;
  double get_double(const std::string& key) const;
  std::string get_string(const std::string& key) const;

  /// The built-in --json flag; empty when no JSON output was requested.
  std::string json_path() const { return get_string("json"); }

  /// Echo the effective configuration (one "# key=value" line each).
  void print(std::ostream& os) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Minimal flat JSON-object builder for machine-readable bench output
/// (BENCH_*.json): insertion-ordered keys, scalar values only. Numbers
/// are emitted with enough precision to round-trip.
class JsonDoc {
 public:
  JsonDoc& set(const std::string& key, double value);
  JsonDoc& set(const std::string& key, std::uint64_t value);
  JsonDoc& set(const std::string& key, const std::string& value);
  JsonDoc& set(const std::string& key, const char* value);
  JsonDoc& set(const std::string& key, bool value);

  void write(std::ostream& os) const;
  /// Write to `path`; logs and carries on when the path is unwritable
  /// (benches should not fail on a bad output path).
  void write_file(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key, raw json
};

/// Short git revision of the working tree, or "unknown" outside a repo.
std::string git_revision();

/// The standard synthetic CDN workload used by all figure benches:
/// production content mix (web/photo/video/download) with mild popularity
/// drift, substituting for the paper's proprietary 500M-request trace.
/// The cost model defaults to BHR (cost = size, paper §2.1); OHR-focused
/// experiments (Fig 1) pass kObjectHitRatio.
trace::Trace standard_trace(
    std::uint64_t num_requests, std::uint64_t seed,
    trace::CostModel cost_model = trace::CostModel::kByteHitRatio);

/// Default LFO configuration for the benches: greedy-packing OPT labels,
/// gaps up to 50 in the default log-spaced schema (16 features; the Fig 5
/// and Fig 8 benches set thin_gaps = false for the paper's dense 53),
/// paper GBDT settings (30 iterations).
core::LfoConfig standard_lfo_config(std::uint64_t cache_size);

/// Cache size as a fraction of the trace's unique bytes — the benches
/// scale the paper's 256 GB / multi-TB-footprint ratio down proportionally.
std::uint64_t scaled_cache_size(const trace::Trace& trace, double fraction);

}  // namespace lfo::bench

#endif  // LFO_BENCH_COMMON_HPP

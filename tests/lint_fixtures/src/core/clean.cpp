// lfo_lint fixture: negative control. Exercises every rule's trigger in
// a form that must NOT fire: allocation outside tagged functions,
// suppressed nondeterminism, side-effect-free checks, conforming metric
// names. Never compiled.
#define LFO_HOT_PATH
#define LFO_ENDPOINT_HANDLER
#define LFO_CHECK_EQ(a, b)
#define LFO_COUNTER_INC(name)

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fixture {

// lfo-lint: allow(nondet): wall-clock diagnostics only, never decisions
using Clock = std::chrono::steady_clock;

struct Entry {
  std::uint64_t size;
};

LFO_HOT_PATH inline double rank(double likelihood, std::uint64_t size) {
  LFO_CHECK_EQ(size == 0, false);
  return likelihood / static_cast<double>(size);
}

inline std::vector<std::uint64_t> sorted_keys(
    const std::unordered_map<std::uint64_t, Entry>& entries) {
  std::vector<std::uint64_t> keys;
  keys.reserve(entries.size());
  // lfo-lint: allow(nondet): keys are sorted by the caller
  for (const auto& [object, entry] : entries) {
    keys.push_back(object);
  }
  return keys;
}

inline void count_admit() { LFO_COUNTER_INC("lfo_cache_admitted_total"); }

// Endpoint metric table with conforming counter names: the metric-name
// rule's table form must stay quiet here.
struct EndpointMetric {
  const char* path;
  const char* metric;
};
constexpr EndpointMetric kEndpointRequestCounters[] = {
    {"/metrics", "lfo_telemetry_metrics_requests_total"},
};

// Endpoint handler that maps malformed input to a 4xx instead of
// aborting: the endpoint rule must stay quiet here.
LFO_ENDPOINT_HANDLER
inline int handle_request(bool well_formed) {
  if (!well_formed) return 400;
  return 200;
}

}  // namespace fixture

#ifndef LFO_TRACE_REQUEST_HPP
#define LFO_TRACE_REQUEST_HPP

#include <cmath>
#include <cstdint>

namespace lfo::trace {

/// Object identifier within a trace. Dense ids (0..N-1) are produced by the
/// generators; traces loaded from disk are remapped to dense ids on load.
using ObjectId = std::uint64_t;

/// A single CDN request, matching the anonymized production-trace schema the
/// paper uses: a sequence number (implicit: index in the trace), an object
/// identifier, and the object size in bytes. We additionally carry the
/// retrieval cost C_i of paper §2.1 (set from the cost model: size for BHR,
/// 1 for OHR, or a measured latency).
struct Request {
  ObjectId object = 0;
  std::uint64_t size = 0;  ///< object size in bytes
  double cost = 0.0;       ///< retrieval cost C_i (miss penalty)
  /// Freshness lifetime in logical time (requests). 0 = no expiry (the
  /// legacy schema; every pre-TTL trace reads back with ttl 0). A cached
  /// copy admitted at logical clock c stays fresh for accesses at clocks
  /// <= c + ttl; a later access finds it stale — a freshness-aware
  /// policy must treat that as a miss and re-admit (LfoCache does; the
  /// heuristic baselines ignore ttl and serve stale).
  std::uint64_t ttl = 0;

  friend bool operator==(const Request&, const Request&) = default;

  bool has_ttl() const { return ttl != 0; }
};

/// Whether a record is one the caches and OPT can take: size > 0 and a
/// finite cost >= 0. A size-0 request corrupts byte-hit accounting (0-byte
/// "hits" inflate BHR and produce zero-capacity MCMF arcs); a negative or
/// non-finite cost poisons every cost-weighted metric and the flow
/// network's costs. Both trace readers and the server's frame decode
/// reject records that fail it.
inline bool valid_record(const Request& r) {
  return r.size > 0 && std::isfinite(r.cost) && r.cost >= 0.0;
}

/// How to instantiate per-request retrieval costs (paper §2.1).
enum class CostModel {
  kByteHitRatio,    ///< cost = object size (optimizes BHR)
  kObjectHitRatio,  ///< cost = 1 (optimizes OHR)
  kLatency,         ///< cost = supplied latency value
};

}  // namespace lfo::trace

#endif  // LFO_TRACE_REQUEST_HPP

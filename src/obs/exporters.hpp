#ifndef LFO_OBS_EXPORTERS_HPP
#define LFO_OBS_EXPORTERS_HPP

#include <ostream>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace lfo::obs {

/// Serialize a registry snapshot in Prometheus text exposition format:
/// one `# TYPE` line plus value line(s) per metric, series names unique,
/// names sanitized to [a-zA-Z_:][a-zA-Z0-9_:]*. Counters get the
/// conventional `counter` type, histograms emit `_bucket{le="..."}`
/// (cumulative, ascending) plus `_sum`/`_count`. The exposition opens
/// with the `lfo_build_info` info-gauge (value 1; revision / compiler /
/// build_type as labels), so every scrape is attributable to a commit.
void write_prometheus_text(std::ostream& os, const MetricsSnapshot& snap);

/// Append one JSONL time-series line: a single JSON object holding every
/// counter, gauge and histogram (count/sum/p50/p90/p99), plus the
/// snapshot's monotonic timestamp and an optional caller label. One call
/// per window/phase yields a grep- and pandas-friendly time series.
void write_jsonl_snapshot(std::ostream& os, std::string_view label = {});

/// Prometheus metric-name sanitizer (exposed for tests): maps any
/// character outside [a-zA-Z0-9_:] to '_' and prefixes '_' when the
/// first character is invalid.
std::string prometheus_name(std::string_view name);

/// Minimal JSON string escaping (backslash, quote, control chars).
std::string json_escaped(std::string_view text);

/// Write the `"counters":{...},"gauges":{...},"histograms":{...}` body
/// of a snapshot (no surrounding braces, no trailing comma) — the
/// shared core of write_jsonl_snapshot, the telemetry server's /stats
/// response and FlightFrame serialization, so all three stay
/// field-compatible.
void append_snapshot_json(std::ostream& os, const MetricsSnapshot& snap);

/// Write `"build_info":{"revision":...,"compiler":...,"build_type":...}`
/// (no surrounding braces) from obs::build_info().
void append_build_info_json(std::ostream& os);

}  // namespace lfo::obs

#endif  // LFO_OBS_EXPORTERS_HPP

#include "obs/exporters.hpp"

#include <cctype>

#include "obs/build_info.hpp"
#include <cmath>
#include <cstdio>
#include <limits>

namespace lfo::obs {

namespace {

/// Format a double the way both Prometheus and JSON accept: shortest
/// round-trip representation, never localized.
std::string number_text(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON has no NaN/Inf literals: empty-histogram quantiles (NaN per
/// LatencyHistogram::quantile) become null so the line stays parseable.
std::string json_number_or_null(double v) {
  return std::isfinite(v) ? number_text(v) : "null";
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string prometheus_label_value(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    const bool ok = alpha || c == '_' || c == ':' || (digit && i > 0);
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string json_escaped(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void write_prometheus_text(std::ostream& os, const MetricsSnapshot& snap) {
  const auto& info = build_info();
  os << "# TYPE lfo_build_info gauge\n"
     << "lfo_build_info{revision=\"" << prometheus_label_value(info.revision)
     << "\",compiler=\"" << prometheus_label_value(info.compiler)
     << "\",build_type=\"" << prometheus_label_value(info.build_type)
     << "\"} 1\n";
  for (const auto& c : snap.counters) {
    const auto name = prometheus_name(c.name);
    os << "# TYPE " << name << " counter\n";
    os << name << ' ' << c.value << '\n';
  }
  for (const auto& g : snap.gauges) {
    const auto name = prometheus_name(g.name);
    os << "# TYPE " << name << " gauge\n";
    os << name << ' ' << number_text(g.value) << '\n';
  }
  for (const auto& h : snap.histograms) {
    const auto name = prometheus_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    for (const auto& [upper, cum] : h.cumulative_buckets) {
      os << name << "_bucket{le=\"" << number_text(upper) << "\"} " << cum
         << '\n';
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << '\n';
    os << name << "_sum " << number_text(h.sum_seconds) << '\n';
    os << name << "_count " << h.count << '\n';
  }
}

void append_snapshot_json(std::ostream& os, const MetricsSnapshot& snap) {
  os << "\"counters\":{";
  bool first = true;
  for (const auto& c : snap.counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escaped(c.name) << "\":" << c.value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& g : snap.gauges) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escaped(g.name) << "\":" << number_text(g.value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escaped(h.name) << "\":{\"count\":" << h.count
       << ",\"sum_seconds\":" << number_text(h.sum_seconds)
       << ",\"p50\":" << json_number_or_null(h.p50)
       << ",\"p90\":" << json_number_or_null(h.p90)
       << ",\"p99\":" << json_number_or_null(h.p99) << '}';
  }
  os << '}';
}

void append_build_info_json(std::ostream& os) {
  const auto& info = build_info();
  os << "\"build_info\":{\"revision\":\"" << json_escaped(info.revision)
     << "\",\"compiler\":\"" << json_escaped(info.compiler)
     << "\",\"build_type\":\"" << json_escaped(info.build_type) << "\"}";
}

void write_jsonl_snapshot(std::ostream& os, std::string_view label) {
  const auto snap = MetricsRegistry::instance().snapshot();
  os << "{\"monotonic_seconds\":"
     << number_text(static_cast<double>(detail::monotonic_ns()) * 1e-9);
  if (!label.empty()) {
    os << ",\"label\":\"" << json_escaped(label) << '"';
  }
  os << ',';
  append_build_info_json(os);
  os << ',';
  append_snapshot_json(os, snap);
  os << "}\n";
}

}  // namespace lfo::obs

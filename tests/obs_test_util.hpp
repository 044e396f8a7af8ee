#ifndef LFO_TESTS_OBS_TEST_UTIL_HPP
#define LFO_TESTS_OBS_TEST_UTIL_HPP

// Shared obs-suite test helpers: a strict mini JSON parser, a Prometheus
// text-exposition validator, an HTTP response splitter, the golden
// trace/pipeline fixtures and registry counter deltas — used by
// test_obs.cpp, test_telemetry_server.cpp, test_obs_stress.cpp,
// test_rollout.cpp and test_server.cpp so every
// suite parses formats with the same (deliberately unforgiving) code
// instead of ad-hoc string matching.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/windowed.hpp"
#include "obs/metrics.hpp"
#include "trace/generator.hpp"

namespace lfo::testutil {

// ------------------------------------------------------ mini JSON parser

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// Parses one complete JSON value; fails the surrounding test (via
  /// ADD_FAILURE) and returns nullopt on any syntax error or trailing
  /// garbage.
  std::optional<JsonValue> parse() {
    JsonValue v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      ADD_FAILURE() << "trailing characters after JSON value at byte "
                    << pos_;
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const std::string& what) {
    ADD_FAILURE() << "JSON parse error at byte " << pos_ << ": " << what;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.text);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return parse_number(out);
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      std::string key;
      skip_ws();
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("dangling escape");
        const char esc = text_[pos_ + 1];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 5 >= text_.size()) return fail("short \\u escape");
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(
                      text_[pos_ + 2 + static_cast<std::size_t>(i)]))) {
                return fail("bad \\u escape");
              }
            }
            out.push_back('?');  // code point itself is irrelevant here
            pos_ += 4;
            break;
          }
          default: return fail("unknown escape");
        }
        pos_ += 2;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character");
      }
      out.push_back(c);
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(
        std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --------------------------------------------- Prometheus text validator

/// Structurally validate a Prometheus text exposition: every line is a
/// `# TYPE` declaration (counter/gauge/histogram, no duplicates) or a
/// `name[{labels}] value` sample (no duplicate series, parseable value),
/// and histogram buckets are cumulative in emit order. Violations fail
/// the surrounding test; the returned set holds every series key
/// (name + label block), e.g. `lfo_windows_total` or
/// `lfo_opt_seconds_bucket{le="+Inf"}`.
inline std::set<std::string> validate_prometheus_text(
    const std::string& text) {
  std::istringstream is(text);
  std::set<std::string> series;
  std::set<std::string> type_decls;
  std::map<std::string, std::uint64_t> last_bucket_cum;
  std::string line;
  while (std::getline(is, line)) {
    EXPECT_FALSE(line.empty()) << "blank line in exposition";
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string name, kind;
      ls >> name >> kind;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "histogram")
          << line;
      EXPECT_TRUE(type_decls.insert(name).second)
          << "duplicate TYPE declaration: " << name;
      continue;
    }
    EXPECT_NE(line[0], '#') << "unexpected comment: " << line;
    const auto space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_TRUE(series.insert(key).second) << "duplicate series: " << key;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparsable sample value: " << line;

    // Histogram buckets must be cumulative (non-decreasing in le order,
    // which is the emit order).
    const auto brace = key.find("_bucket{");
    if (brace != std::string::npos) {
      const std::string base = key.substr(0, brace);
      const auto cum =
          static_cast<std::uint64_t>(std::strtod(value.c_str(), nullptr));
      const auto it = last_bucket_cum.find(base);
      if (it != last_bucket_cum.end()) {
        EXPECT_GE(cum, it->second) << "non-cumulative buckets: " << key;
      }
      last_bucket_cum[base] = cum;
    }
  }
  return series;
}

// -------------------------------------------------- HTTP response parser

/// Split a raw HTTP/1.1 response (as returned by obs::fetch_local) into
/// status code, lowercase-keyed headers and body. `ok` is false when the
/// bytes do not look like an HTTP response at all.
struct HttpParts {
  bool ok = false;
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

inline HttpParts parse_http_response(const std::string& raw) {
  HttpParts parts;
  const auto head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return parts;
  const auto line_end = raw.find("\r\n");
  const std::string status_line = raw.substr(0, line_end);
  if (status_line.rfind("HTTP/1.1 ", 0) != 0) return parts;
  parts.status = std::atoi(status_line.c_str() + 9);
  std::size_t pos = line_end + 2;
  while (pos < head_end) {
    const auto eol = raw.find("\r\n", pos);
    const std::string header = raw.substr(pos, eol - pos);
    const auto colon = header.find(':');
    if (colon != std::string::npos) {
      std::string key = header.substr(0, colon);
      for (char& c : key) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      std::size_t vbegin = colon + 1;
      while (vbegin < header.size() && header[vbegin] == ' ') ++vbegin;
      parts.headers[key] = header.substr(vbegin);
    }
    pos = eol + 2;
  }
  parts.body = raw.substr(head_end + 4);
  parts.ok = true;
  return parts;
}

// ----------------------------------------------------- pipeline fixtures

/// The golden-suite web scenario (stationary) and flash-crowd scenario
/// (drifting), at the golden suite's exact generator settings, so
/// drift/rollout assertions are tied to the same locked traces.
inline trace::Trace golden_trace(const std::string& name) {
  trace::GeneratorConfig gen;
  gen.num_requests = 20000;
  if (name == "web") {
    gen.seed = 101;
    gen.classes = {trace::web_class(4000)};
  } else {
    gen.seed = 303;
    gen.classes = {trace::web_class(3000)};
    gen.drift.reshuffle_interval = 5000;
    gen.drift.reshuffle_fraction = 0.3;
    gen.drift.flash_crowd_probability = 1.0;
    gen.drift.flash_crowd_share = 0.3;
    gen.drift.flash_crowd_duration = 3000;
  }
  return trace::generate_trace(gen);
}

inline core::WindowedConfig golden_lfo_config() {
  core::WindowedConfig config;
  config.lfo.set_cache_size(32ULL << 20);
  config.lfo.features.num_gaps = 20;
  config.lfo.gbdt.num_iterations = 15;
  config.window_size = 5000;
  config.swap_lag = 1;
  return config;
}

// ------------------------------------------------------ registry deltas

/// How far one registry counter has moved since construction.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name) : name_(name), start_(value()) {}
  std::uint64_t operator()() const { return value() - start_; }

 private:
  std::uint64_t value() const {
    return obs::MetricsRegistry::instance().counter(name_).value();
  }
  const char* name_;
  std::uint64_t start_;
};

}  // namespace lfo::testutil

#endif  // LFO_TESTS_OBS_TEST_UTIL_HPP

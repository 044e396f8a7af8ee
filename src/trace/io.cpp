#include "trace/io.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/strings.hpp"

namespace lfo::trace {

namespace {
// v01: (object, size, cost) records — the pre-TTL schema.
// v02: (object, size, cost, ttl) records. Writers emit v02 only when at
// least one request carries a nonzero ttl, so traces without freshness
// metadata stay byte-identical to what older readers expect.
constexpr char kMagic[8] = {'L', 'F', 'O', 'T', 'R', 'C', '0', '1'};
constexpr char kMagicV2[8] = {'L', 'F', 'O', 'T', 'R', 'C', '0', '2'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("trace io: " + what);
}

std::ifstream open_in(const std::string& path, std::ios::openmode mode) {
  std::ifstream in(path, mode);
  if (!in) fail("cannot open for reading: " + path);
  return in;
}

std::ofstream open_out(const std::string& path, std::ios::openmode mode) {
  std::ofstream out(path, mode);
  if (!out) fail("cannot open for writing: " + path);
  return out;
}

/// Reject a record that fails valid_record(), naming the rule it broke.
/// `where` names the record for the error ("line 12" / "record 3").
void validate_record(const Request& r, const std::string& where) {
  if (valid_record(r)) return;
  if (r.size == 0) fail(where + ": size must be > 0");
  if (!std::isfinite(r.cost)) fail(where + ": cost must be finite");
  fail(where + ": cost must be >= 0");
}
}  // namespace

Trace read_text_trace(std::istream& in) {
  std::vector<Request> reqs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    // Accept space- or tab-separated fields.
    std::vector<std::string_view> fields;
    std::string_view rest = trimmed;
    while (!rest.empty()) {
      const auto pos = rest.find_first_of(" \t");
      fields.push_back(rest.substr(0, pos));
      if (pos == std::string_view::npos) break;
      rest = rest.substr(pos);
      const auto nonspace = rest.find_first_not_of(" \t");
      rest = nonspace == std::string_view::npos ? std::string_view{}
                                                : rest.substr(nonspace);
    }
    if (fields.size() < 2 || fields.size() > 4) {
      fail("line " + std::to_string(lineno) +
           ": expected 'object size [cost [ttl]]'");
    }
    Request r;
    const auto obj = util::parse_uint(fields[0]);
    const auto size = util::parse_uint(fields[1]);
    if (!obj || !size) fail("line " + std::to_string(lineno) + ": bad number");
    r.object = *obj;
    r.size = *size;
    if (fields.size() >= 3) {
      const auto cost = util::parse_double(fields[2]);
      if (!cost) fail("line " + std::to_string(lineno) + ": bad cost");
      r.cost = *cost;
    } else {
      r.cost = static_cast<double>(r.size);  // BHR cost model default
    }
    // Optional 4th column: freshness ttl in logical requests. Lines
    // without it read back as ttl 0 (never expires), so pre-TTL traces
    // and mixed old/new files parse unchanged.
    if (fields.size() >= 4) {
      const auto ttl = util::parse_uint(fields[3]);
      if (!ttl) fail("line " + std::to_string(lineno) + ": bad ttl");
      r.ttl = *ttl;
    }
    validate_record(r, "line " + std::to_string(lineno));
    reqs.push_back(r);
  }
  densify_object_ids(reqs);
  return Trace(std::move(reqs));
}

Trace read_text_trace_file(const std::string& path) {
  auto in = open_in(path, std::ios::in);
  return read_text_trace(in);
}

void write_text_trace(const Trace& trace, std::ostream& out) {
  // max_digits10 so costs survive a write/read round trip bit-exactly
  // (the default precision of 6 silently truncates byte-sized costs).
  const auto saved_precision = out.precision(17);
  out << "# object size cost [ttl]\n";
  for (const auto& r : trace.requests()) {
    out << r.object << ' ' << r.size << ' ' << r.cost;
    // ttl column only where it carries information: ttl-free lines stay
    // in the legacy 3-column shape, so a trace without freshness data
    // round-trips to a file older parsers (and diffs) recognise.
    if (r.has_ttl()) out << ' ' << r.ttl;
    out << '\n';
  }
  out.precision(saved_precision);
}

void write_text_trace_file(const Trace& trace, const std::string& path) {
  auto out = open_out(path, std::ios::out);
  write_text_trace(trace, out);
}

Trace read_binary_trace(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof magic);
  const bool v1 = in && std::memcmp(magic, kMagic, sizeof kMagic) == 0;
  const bool v2 = in && std::memcmp(magic, kMagicV2, sizeof kMagicV2) == 0;
  if (!v1 && !v2) {
    fail("bad magic (not an LFO binary trace)");
  }
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!in) fail("truncated header");
  // The header's count is untrusted: reserve a bounded prefix and grow
  // as records arrive, so a forged count fails as a truncated body
  // instead of allocating (or overflowing) up front.
  constexpr std::uint64_t kMaxReserve = std::uint64_t{1} << 16;
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(std::min(count, kMaxReserve)));
  for (std::uint64_t index = 0; index < count; ++index) {
    Request r;
    in.read(reinterpret_cast<char*>(&r.object), sizeof r.object);
    in.read(reinterpret_cast<char*>(&r.size), sizeof r.size);
    in.read(reinterpret_cast<char*>(&r.cost), sizeof r.cost);
    if (v2) in.read(reinterpret_cast<char*>(&r.ttl), sizeof r.ttl);
    if (!in) fail("truncated body");
    validate_record(r, "record " + std::to_string(index));
    reqs.push_back(r);
  }
  return Trace(std::move(reqs));
}

Trace read_binary_trace_file(const std::string& path) {
  auto in = open_in(path, std::ios::in | std::ios::binary);
  return read_binary_trace(in);
}

void write_binary_trace(const Trace& trace, std::ostream& out) {
  // Emit the v02 (ttl-bearing) layout only when some request actually has
  // a ttl; ttl-free traces keep producing bit-identical v01 files.
  bool any_ttl = false;
  for (const auto& r : trace.requests()) {
    if (r.has_ttl()) {
      any_ttl = true;
      break;
    }
  }
  out.write(any_ttl ? kMagicV2 : kMagic, sizeof kMagic);
  const std::uint64_t count = trace.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (const auto& r : trace.requests()) {
    out.write(reinterpret_cast<const char*>(&r.object), sizeof r.object);
    out.write(reinterpret_cast<const char*>(&r.size), sizeof r.size);
    out.write(reinterpret_cast<const char*>(&r.cost), sizeof r.cost);
    if (any_ttl) out.write(reinterpret_cast<const char*>(&r.ttl), sizeof r.ttl);
  }
  if (!out) fail("write failure");
}

void write_binary_trace_file(const Trace& trace, const std::string& path) {
  auto out = open_out(path, std::ios::out | std::ios::binary);
  write_binary_trace(trace, out);
}

}  // namespace lfo::trace

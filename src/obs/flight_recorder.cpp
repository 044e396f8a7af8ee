#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/exporters.hpp"

namespace lfo::obs {

std::uint64_t FlightFrame::counter(std::string_view name,
                                   std::uint64_t missing) const {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return missing;
}

std::uint64_t FlightFrame::counter_delta(std::string_view name,
                                         std::uint64_t missing) const {
  for (const auto& [n, delta] : counter_deltas) {
    if (n == name) return delta;
  }
  return missing;
}

double FlightFrame::gauge(std::string_view name, double missing) const {
  for (const auto& g : snapshot.gauges) {
    if (g.name == name) return g.value;
  }
  return missing;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

FlightFrame FlightRecorder::capture_locked(std::string label,
                                           std::uint64_t window_index) {
  FlightFrame frame;
  frame.sequence = total_++;
  frame.monotonic_seconds =
      static_cast<double>(detail::monotonic_ns()) * 1e-9;
  frame.label = std::move(label);
  frame.window_index = window_index;
  frame.snapshot = MetricsRegistry::instance().snapshot();
  frame.counter_deltas.reserve(frame.snapshot.counters.size());
  for (const auto& c : frame.snapshot.counters) {
    const auto it = prev_counters_.find(c.name);
    const std::uint64_t prev =
        it != prev_counters_.end() ? it->second : 0;
    // Counters are monotonic and frames are serialized under mu_, so a
    // value below the previous frame's means registry corruption (or a
    // reset_all between frames, which tests must do before recording).
    frame.counter_deltas.emplace_back(c.name,
                                      c.value >= prev ? c.value - prev : 0);
    prev_counters_[c.name] = c.value;
  }
  frames_.push_back(frame);
  if (frames_.size() > capacity_) frames_.pop_front();
  return frame;
}

FlightFrame FlightRecorder::record(std::string label,
                                   std::uint64_t window_index) {
  const util::MutexLock lock(mu_);
  return capture_locked(std::move(label), window_index);
}

std::vector<FlightFrame> FlightRecorder::history(std::size_t n) const {
  const util::MutexLock lock(mu_);
  const std::size_t take = std::min(n, frames_.size());
  return {frames_.end() - static_cast<std::ptrdiff_t>(take), frames_.end()};
}

std::size_t FlightRecorder::size() const {
  const util::MutexLock lock(mu_);
  return frames_.size();
}

std::uint64_t FlightRecorder::total_recorded() const {
  const util::MutexLock lock(mu_);
  return total_;
}

void FlightRecorder::clear() {
  const util::MutexLock lock(mu_);
  frames_.clear();
  prev_counters_.clear();
}

void FlightRecorder::dump_jsonl(std::ostream& os) const {
  const auto frames = history(capacity_);
  for (const auto& frame : frames) {
    write_frame_json(os, frame);
    os << '\n';
  }
}

void write_frame_json(std::ostream& os, const FlightFrame& frame) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", frame.monotonic_seconds);
  os << "{\"sequence\":" << frame.sequence << ",\"monotonic_seconds\":"
     << buf << ",\"label\":\"" << json_escaped(frame.label) << '"';
  if (frame.window_index != FlightFrame::kNoWindow) {
    os << ",\"window_index\":" << frame.window_index;
  }
  os << ",\"counter_deltas\":{";
  bool first = true;
  for (const auto& [name, delta] : frame.counter_deltas) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escaped(name) << "\":" << delta;
  }
  os << "},";
  append_snapshot_json(os, frame.snapshot);
  os << '}';
}

}  // namespace lfo::obs

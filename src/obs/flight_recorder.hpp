#ifndef LFO_OBS_FLIGHT_RECORDER_HPP
#define LFO_OBS_FLIGHT_RECORDER_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace lfo::obs {

/// One recorded telemetry frame: a full registry snapshot captured at a
/// point in time, plus the per-counter increments since the previous
/// frame. Counter values in `snapshot` are cumulative (never reset);
/// `counter_deltas` holds the step this frame contributed, so a frame
/// sequence reads as a metric *time series* — "the fallback at window 17
/// shows up as an lfo_rollout_fallback_total step of 1" — without the
/// consumer diffing adjacent frames itself.
struct FlightFrame {
  /// Strictly increasing per recorder (not reset by ring eviction), so
  /// gaps after overflow are detectable: frame k is the k-th capture.
  std::uint64_t sequence = 0;
  /// Capture time on the process monotonic clock, in seconds.
  double monotonic_seconds = 0.0;
  /// Why the frame was captured: "window" (pipeline boundary) or a
  /// caller-chosen label.
  std::string label;
  /// Window index for "window" frames; kNoWindow otherwise.
  std::uint64_t window_index = kNoWindow;
  /// Full registry state at capture (cumulative counter values).
  MetricsSnapshot snapshot;
  /// name -> (value at this frame) - (value at the previous frame), for
  /// every counter present in `snapshot`. A counter first seen in this
  /// frame contributes its full value (delta from an implicit 0).
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;

  static constexpr std::uint64_t kNoWindow = ~0ULL;

  /// Convenience lookups into `snapshot` / `counter_deltas`; return
  /// `missing` when the name was not captured.
  std::uint64_t counter(std::string_view name,
                        std::uint64_t missing = 0) const;
  std::uint64_t counter_delta(std::string_view name,
                              std::uint64_t missing = 0) const;
  double gauge(std::string_view name, double missing = 0.0) const;
};

/// Fixed-capacity ring of timestamped MetricsSnapshot deltas — the
/// in-process flight recorder behind `/stats?history=N`. The windowed
/// driver records one frame per window boundary
/// (core::WindowedConfig::flight_recorder). All captures are pure
/// registry reads: recording can never change caching decisions
/// (enforced by the same_decisions tests in
/// tests/test_telemetry_server.cpp).
///
/// Thread safety: record()/history()/dump_jsonl() may race freely; one
/// internal mutex orders frames, so deltas are consistent — each
/// counter's cumulative value is non-decreasing across the frame
/// sequence (counters are monotonic and frames are serialized).
class FlightRecorder {
 public:
  /// `capacity` frames are kept; the oldest is evicted on overflow.
  explicit FlightRecorder(std::size_t capacity = 256);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Capture one frame now. Returns a copy of the recorded frame.
  FlightFrame record(std::string label,
                     std::uint64_t window_index = FlightFrame::kNoWindow);

  /// The most recent min(n, size()) frames, oldest first.
  std::vector<FlightFrame> history(std::size_t n) const;

  std::size_t capacity() const { return capacity_; }
  /// Frames currently retained (<= capacity).
  std::size_t size() const;
  /// Frames ever recorded (== the next frame's sequence).
  std::uint64_t total_recorded() const;
  /// Drop all frames and reset the delta baseline (sequence keeps
  /// counting, so post-clear frames are distinguishable).
  void clear();

  /// Append every retained frame as one JSON object per line (JSONL),
  /// oldest first. Each line parses standalone: sequence, label,
  /// timestamps, counters (cumulative), counter_deltas, gauges,
  /// histograms.
  void dump_jsonl(std::ostream& os) const;

 private:
  FlightFrame capture_locked(std::string label, std::uint64_t window_index)
      LFO_REQUIRES(mu_);

  const std::size_t capacity_;
  mutable util::Mutex mu_;
  std::deque<FlightFrame> frames_ LFO_GUARDED_BY(mu_);
  std::uint64_t total_ LFO_GUARDED_BY(mu_) = 0;
  /// Cumulative counter values at the previous capture (delta baseline).
  std::map<std::string, std::uint64_t, std::less<>> prev_counters_
      LFO_GUARDED_BY(mu_);
};

/// Serialize one frame as a single-line JSON object (no trailing
/// newline) — shared by dump_jsonl() and the /stats history array.
void write_frame_json(std::ostream& os, const FlightFrame& frame);

}  // namespace lfo::obs

#endif  // LFO_OBS_FLIGHT_RECORDER_HPP

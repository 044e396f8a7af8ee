#ifndef LFO_OBS_TRACE_SPAN_HPP
#define LFO_OBS_TRACE_SPAN_HPP

#include <cstdint>
#include <ostream>
#include <string>

#include "obs/metrics.hpp"

namespace lfo::obs {

/// Runtime toggle for span collection. Off by default: a disabled
/// TraceSpan costs one relaxed load. Enable around the region of
/// interest, then write_chrome_trace() the result.
bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// Label the calling thread's lane in the trace viewer ("serve",
/// "train", ...). Exported as a chrome://tracing thread_name metadata
/// event; cheap to call repeatedly (overwrites the label).
void set_thread_label(std::string label);

/// Drop every recorded span (benchmarks / tests reuse the process).
void clear_trace();

/// Number of complete spans currently recorded across all threads.
std::size_t recorded_span_count();

/// Serialize all recorded spans as chrome://tracing "JSON Array Format":
/// {"traceEvents":[...]}. Every span becomes a balanced B/E event pair
/// tagged with its thread id, so the async train-vs-serve overlap shows
/// up as separate lanes in chrome://tracing or Perfetto. Timestamps are
/// microseconds relative to the earliest recorded span.
void write_chrome_trace(std::ostream& os);

/// RAII span: records [construction, destruction) on the calling
/// thread. `name` must outlive the collector (string literals). Spans
/// nest properly per thread by construction, which is what guarantees
/// balanced B/E pairs in the export.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  // null = tracing was off at construction
  std::uint64_t begin_ns_ = 0;
};

/// RAII timer: observes the scope's duration into a LatencyHistogram
/// (and is independent of the tracing toggle).
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& histogram)
      : histogram_(&histogram), begin_ns_(detail::monotonic_ns()) {}
  ~ScopedTimer() {
    histogram_->observe_ns(detail::monotonic_ns() - begin_ns_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* histogram_;
  std::uint64_t begin_ns_;
};

}  // namespace lfo::obs

/// Trace the enclosing scope under `name` (a string literal).
#define LFO_TRACE_SPAN(name) \
  ::lfo::obs::TraceSpan LFO_OBS_CONCAT(lfo_trace_span_, __LINE__)(name)

/// Label the calling thread's trace lane.
#define LFO_TRACE_THREAD_LABEL(label)          \
  do {                                         \
    if (::lfo::obs::tracing_enabled()) {       \
      ::lfo::obs::set_thread_label(label);     \
    }                                          \
  } while (0)

#endif  // LFO_OBS_TRACE_SPAN_HPP

#ifndef LFO_SIM_TELEMETRY_HPP
#define LFO_SIM_TELEMETRY_HPP

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/windowed.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry_server.hpp"

namespace lfo::sim {

/// Owns the flight recorder + telemetry server for one windowed run and
/// wires both into a core::WindowedConfig:
///
///   sim::TelemetrySession telemetry(port);
///   telemetry.wire(config);          // before run_windowed_lfo
///   telemetry.start();               // serve /metrics, /stats, ...
///
/// wire() points config.flight_recorder at the ring (one frame per
/// window boundary) and CHAINS config.window_hook — the caller's hook
/// still runs; the chained part only mirrors each report's rollout
/// state and drift warning into atomics the /healthz callback reads.
/// Everything here observes the pipeline; nothing feeds back into
/// decisions (same_decisions holds with the session live and scraped).
///
/// /healthz reports 503 during rollout fallback and while the latest
/// window's report.health.drift_warning is set
/// (WindowedConfig::drift_warn_threshold).
class TelemetrySession {
 public:
  /// `port` for the loopback HTTP server; 0 picks an ephemeral port.
  explicit TelemetrySession(std::uint16_t port = 0);
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  /// Attach recorder + health tracking to `config`. Call before the run;
  /// safe to call on multiple configs (they share this session's state).
  void wire(core::WindowedConfig& config);

  /// Start the HTTP server. Returns false with the reason in
  /// server().last_error().
  bool start();
  void stop();

  obs::FlightRecorder& recorder() { return recorder_; }
  obs::TelemetryServer& server() { return *server_; }
  std::uint16_t port() const { return server_->port(); }

  /// The /healthz verdict, also callable in-process.
  obs::HealthStatus health() const;

 private:
  obs::FlightRecorder recorder_;
  std::unique_ptr<obs::TelemetryServer> server_;
  /// static_cast<int>(core::RolloutState) of the latest emitted window,
  /// -1 before the first window.
  std::atomic<int> rollout_state_{-1};
  std::atomic<bool> drift_warning_{false};
};

}  // namespace lfo::sim

#endif  // LFO_SIM_TELEMETRY_HPP

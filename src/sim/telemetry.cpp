#include "sim/telemetry.hpp"

#include <string>
#include <utility>

#include "core/rollout.hpp"

namespace lfo::sim {

namespace {
/// Flight-recorder frames retained (one per window boundary).
constexpr std::size_t kHistoryFrames = 256;
}  // namespace

TelemetrySession::TelemetrySession(std::uint16_t port)
    : recorder_(kHistoryFrames) {
  obs::TelemetryServerConfig server_config;
  server_config.port = port;
  server_config.flight_recorder = &recorder_;
  server_config.health = [this] { return health(); };
  server_ = std::make_unique<obs::TelemetryServer>(std::move(server_config));
}

TelemetrySession::~TelemetrySession() { stop(); }

void TelemetrySession::wire(core::WindowedConfig& config) {
  config.flight_recorder = &recorder_;
  auto inner = std::move(config.window_hook);
  config.window_hook = [this, inner = std::move(inner)](
                           const core::WindowReport& report) {
    rollout_state_.store(static_cast<int>(report.rollout.state),
                         std::memory_order_relaxed);
    drift_warning_.store(report.health.drift_warning,
                         std::memory_order_relaxed);
    if (inner) inner(report);
  };
}

bool TelemetrySession::start() { return server_->start(); }

void TelemetrySession::stop() { server_->stop(); }

obs::HealthStatus TelemetrySession::health() const {
  const int state = rollout_state_.load(std::memory_order_relaxed);
  const bool drifting = drift_warning_.load(std::memory_order_relaxed);
  obs::HealthStatus status;
  if (state == static_cast<int>(core::RolloutState::kFallback)) {
    status.serving = false;
    status.detail = "rollout fallback: heuristic serving";
  } else if (drifting) {
    status.serving = false;
    status.detail = "feature drift warning active";
  } else if (state < 0) {
    status.detail = "no window emitted yet";
  } else {
    status.detail = std::string("rollout state: ") +
                    core::to_string(static_cast<core::RolloutState>(state));
  }
  return status;
}

}  // namespace lfo::sim

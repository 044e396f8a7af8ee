// CDN-server scenario: the paper's motivating setting. A server faces a
// mixed content workload (web pages, social photos, video chunks,
// software downloads) whose popularity shifts as the load balancer
// re-routes users, plus an "iOS update day" flash crowd. The windowed LFO
// pipeline (record -> derive OPT -> retrain -> serve, paper Fig 2)
// re-learns after every window; we plot per-window BHR against S4LRU and
// AdaptSize to show the adaptation.
//
// Run: ./build/examples/cdn_server_simulation [--requests=N] [--seed=S]
//          [--obs-port=P] [--obs-linger=SECONDS]
//
// --obs-port starts the loopback telemetry server (0 = ephemeral port;
// the bound port is printed) serving /metrics, /stats, /healthz, /vars
// and /trace for the duration of the run. /healthz answers 503 while the
// rollout guard is in heuristic fallback (the lfo_rollout_state gauge,
// set at every window boundary), the rule the cache server applies.
// --obs-linger keeps the process (and the endpoints) alive for SECONDS
// after the simulation finishes, so `curl` has something to talk to.
// A malformed value prints the usage line and exits 2.

#include <chrono>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "cache/factory.hpp"
#include "core/rollout.hpp"
#include "core/windowed.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "trace/generator.hpp"
#include "trace/trace_stats.hpp"
#include "util/strings.hpp"

namespace {

int usage() {
  std::cerr << "usage: cdn_server_simulation [--requests=N] [--seed=S]"
               " [--obs-port=P] [--obs-linger=SECONDS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lfo;

  std::uint64_t num_requests = 240000;
  std::uint64_t seed = 7;
  std::optional<std::uint16_t> obs_port;
  std::uint64_t obs_linger = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--requests=", 0) == 0) {
      const auto value = util::parse_uint(arg.substr(11));
      // At least one request per window (eight windows).
      if (!value || *value < 8) return usage();
      num_requests = *value;
    } else if (arg.rfind("--seed=", 0) == 0) {
      const auto value = util::parse_uint(arg.substr(7));
      if (!value) return usage();
      seed = *value;
    } else if (arg.rfind("--obs-port=", 0) == 0) {
      const auto value = util::parse_uint(arg.substr(11));
      if (!value || *value > 65535) return usage();
      obs_port = static_cast<std::uint16_t>(*value);
    } else if (arg.rfind("--obs-linger=", 0) == 0) {
      const auto value = util::parse_uint(arg.substr(13));
      if (!value) return usage();
      obs_linger = *value;
    } else {
      return usage();
    }
  }

  // The workload: production mix + frequent popularity reshuffles + a
  // guaranteed flash crowd (software-release day).
  trace::GeneratorConfig config;
  config.num_requests = num_requests;
  config.seed = seed;
  config.classes = trace::production_mix(0.05);
  config.drift.reshuffle_interval = num_requests / 6;
  config.drift.reshuffle_fraction = 0.3;
  config.drift.flash_crowd_probability = 0.5;
  config.drift.flash_crowd_share = 0.3;
  config.drift.flash_crowd_duration = num_requests / 12;
  const auto trace = trace::generate_trace(config);
  std::cout << "workload: " << trace::compute_stats(trace) << "\n\n";

  const std::uint64_t cache_size = trace.unique_bytes() / 20;

  // Baselines run over the same stream; their stats are sampled at window
  // boundaries for the timeline.
  auto s4lru = cache::make_policy("S4LRU", cache_size, seed);
  auto adaptsize = cache::make_policy("AdaptSize", cache_size, seed);

  core::WindowedConfig lfo_config;
  lfo_config.lfo.set_cache_size(cache_size);
  lfo_config.window_size = num_requests / 8;

  std::unique_ptr<obs::TelemetryServer> telemetry;
  if (obs_port) {
    obs::TelemetryServerConfig tconfig;
    tconfig.port = *obs_port;
    tconfig.health = [] {
      const auto state = static_cast<core::RolloutState>(static_cast<int>(
          obs::MetricsRegistry::instance().gauge("lfo_rollout_state").value()));
      obs::HealthStatus health;
      health.serving = state != core::RolloutState::kFallback;
      health.detail = core::to_string(state);
      return health;
    };
    telemetry = std::make_unique<obs::TelemetryServer>(std::move(tconfig));
    if (!telemetry->start()) {
      std::cerr << "telemetry: failed to start: " << telemetry->last_error()
                << '\n';
      return 1;
    }
    // Parsed by tools/obs_smoke.sh — keep the format stable.
    std::cout << "telemetry: listening on 127.0.0.1:" << telemetry->port()
              << std::endl;
  }

  // Drive LFO through the windowed pipeline.
  const auto result = core::run_windowed_lfo(trace, lfo_config);

  // Replay baselines, capturing per-window deltas.
  struct Sample {
    std::uint64_t bytes_hit, bytes_requested;
  };
  std::map<std::string, std::vector<double>> timeline;
  for (auto* policy : {s4lru.get(), adaptsize.get()}) {
    std::uint64_t last_hit = 0, last_req = 0;
    for (const auto& w : result.windows) {
      for (const auto& r : trace.window(w.begin, w.length)) {
        policy->access(r);
      }
      const auto& s = policy->stats();
      timeline[policy->name()].push_back(
          static_cast<double>(s.bytes_hit - last_hit) /
          static_cast<double>(s.bytes_requested - last_req));
      last_hit = s.bytes_hit;
      last_req = s.bytes_requested;
    }
  }

  std::cout << "per-window byte hit ratios (window = "
            << lfo_config.window_size << " requests):\n";
  std::cout << std::left << std::setw(8) << "window" << std::right
            << std::setw(10) << "LFO" << std::setw(12) << "S4LRU"
            << std::setw(12) << "AdaptSize" << std::setw(12) << "winOPT"
            << std::setw(12) << "pred_err" << '\n';
  std::cout << std::fixed << std::setprecision(4);
  for (std::size_t w = 0; w < result.windows.size(); ++w) {
    const auto& win = result.windows[w];
    std::cout << std::left << std::setw(8) << w << std::right
              << std::setw(10) << win.bhr << std::setw(12)
              << timeline["S4LRU"][w] << std::setw(12)
              << timeline["AdaptSize"][w] << std::setw(12) << win.opt_bhr
              << std::setw(12)
              << (win.prediction_error < 0 ? std::string("boot")
                                           : std::to_string(
                                                 win.prediction_error))
              << '\n';
  }

  std::cout << "\noverall: LFO bhr=" << result.overall.bhr()
            << " ohr=" << result.overall.ohr() << " (bypassed "
            << result.bypassed << " requests)\n";
  std::cout << "         S4LRU bhr=" << s4lru->stats().bhr()
            << "  AdaptSize bhr=" << adaptsize->stats().bhr() << '\n';

  if (telemetry && obs_linger > 0) {
    std::cout << "telemetry: lingering " << obs_linger
              << "s for scrapes (127.0.0.1:" << telemetry->port() << ")"
              << std::endl;
    std::this_thread::sleep_for(std::chrono::seconds(obs_linger));
  }
  return 0;
}

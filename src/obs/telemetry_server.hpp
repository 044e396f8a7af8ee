#ifndef LFO_OBS_TELEMETRY_SERVER_HPP
#define LFO_OBS_TELEMETRY_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

/// Marker consumed by tools/lfo_lint.py: the tagged function DEFINITION
/// handles externally supplied HTTP input. lfo_lint rejects LFO_CHECK /
/// LFO_DCHECK inside the body — malformed input must map to a 4xx
/// response, never to a process abort — unless the line carries an
/// explicit `// lfo-lint: allow(endpoint): why`. Expands to nothing.
#define LFO_ENDPOINT_HANDLER

namespace lfo::obs {

/// Health verdict served on /healthz. `serving` decides the status code
/// (200 vs 503); `detail` is echoed in the JSON body for operators.
struct HealthStatus {
  bool serving = true;
  std::string detail = "ok";
};

/// One parsed-and-answered HTTP exchange (also the unit the in-process
/// tests drive directly, without sockets).
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

struct TelemetryServerConfig {
  /// TCP port to bind on 127.0.0.1. 0 picks an ephemeral port; read the
  /// actual one back via TelemetryServer::port().
  std::uint16_t port = 0;
  /// Flight recorder backing `/stats?history=N` and `/trace` context.
  /// May be null: history queries then return an empty array.
  FlightRecorder* flight_recorder = nullptr;
  /// Callback behind /healthz. Null means "always serving".
  std::function<HealthStatus()> health = nullptr;
  /// Scrape-time hook: appends series the registry does not hold (facts
  /// another component already counts) to the snapshot that /metrics,
  /// /stats and /vars serve. It must keep each kind's names sorted. Null
  /// serves the registry alone.
  std::function<void(MetricsSnapshot&)> collect = nullptr;
  /// Deadline for reading a whole request head, counted from the moment
  /// a handler picks the connection up (a peer that trickles bytes
  /// cannot extend it), and the socket timeout for each write of the
  /// response.
  double io_timeout_seconds = 2.0;
};

/// Dependency-free HTTP/1.1 telemetry responder over plain POSIX
/// sockets: one accept thread feeding a pool of two handler threads
/// through a backlog of at most 16 accepted connections (beyond it a
/// connection is closed at once and counted in
/// lfo_telemetry_shed_connections_total), `Connection: close` on every
/// response. A request head is capped at 8 KiB (longer ones get 431). A
/// peer that connects and then stalls or trickles occupies one handler
/// until the io deadline; it cannot delay other scrapes — /healthz in
/// particular stays prompt (tests/test_telemetry_server.cpp locks this
/// down with deliberately slow clients). Endpoints:
///
///   GET /metrics            Prometheus text exposition (exporters.cpp)
///   GET /stats[?history=N]  JSON snapshot + last N flight frames
///   GET /healthz            200/503 from the health callback
///   GET /vars?name=<m>      single metric as a bare value
///   GET /trace              chrome://tracing JSON dump
///
/// Every handler is a pure registry/recorder read (plus the read-only
/// `collect` hook) — serving a scrape can never change a caching
/// decision (tests/test_telemetry_server.cpp asserts same_decisions with
/// a live scraper). Binds 127.0.0.1 only:
/// this is an operator loopback port, not an internet-facing server.
class TelemetryServer {
 public:
  explicit TelemetryServer(TelemetryServerConfig config);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Bind + listen + start the accept thread. Returns false (with the
  /// reason in last_error()) if the port is taken or sockets fail.
  bool start();
  /// Stop accepting, join the thread, close the listener. Idempotent.
  void stop();
  bool running() const { return listen_fd_ >= 0; }

  /// Port actually bound (resolves port 0), 0 before start().
  std::uint16_t port() const { return port_; }
  const std::string& last_error() const { return last_error_; }

  /// Parse one raw request head and produce the response — the whole
  /// HTTP brain, exposed so tests exercise routing and malformed-input
  /// handling without a socket in sight.
  HttpResponse handle_request_for_test(std::string_view request) const {
    return handle_request(request);
  }

 private:
  HttpResponse handle_request(std::string_view request) const;
  /// Registry snapshot with the `collect` series appended.
  MetricsSnapshot snapshot() const;
  void accept_loop();
  void handler_loop();
  void serve_connection(int fd) const;

  TelemetryServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string last_error_;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::vector<std::thread> handler_threads_;

  /// Accepted sockets awaiting a handler. The accept thread only ever
  /// enqueues (or sheds over the cap), so a peer that connects and then
  /// stalls ties up at most one handler, never the accept path.
  util::Mutex queue_mu_;
  util::CondVar queue_cv_;
  std::deque<int> pending_ LFO_GUARDED_BY(queue_mu_);
};

/// Minimal loopback HTTP GET for tests and the bench scraper thread:
/// connects to 127.0.0.1:port, sends `GET <target>`, returns the raw
/// response (status line + headers + body) or an empty string on any
/// socket failure.
std::string fetch_local(std::uint16_t port, std::string_view target,
                        double timeout_seconds = 2.0);

}  // namespace lfo::obs

#endif  // LFO_OBS_TELEMETRY_SERVER_HPP

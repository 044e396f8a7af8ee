#ifndef LFO_OBS_TELEMETRY_SERVER_HPP
#define LFO_OBS_TELEMETRY_SERVER_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

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
  /// Callback behind /healthz. Null means "always serving".
  std::function<HealthStatus()> health = nullptr;
  /// Scrape-time hook: appends series the registry does not hold (facts
  /// another component already counts) to the snapshot that /metrics,
  /// /stats and /vars serve. It must keep each kind's names sorted. Null
  /// serves the registry alone.
  std::function<void(MetricsSnapshot&)> collect = nullptr;
  /// Deadline for reading a whole request head, counted from accept (a
  /// peer that trickles bytes cannot extend it), and how long a reply
  /// may wait for the peer to take any of it.
  double io_timeout_seconds = 2.0;
};

/// Dependency-free HTTP/1.1 telemetry responder over plain POSIX
/// sockets: one thread running one epoll loop over the listener, a stop
/// eventfd and every connection, `Connection: close` on every response.
/// A connection must send its request head (at most 8 KiB, else 431)
/// within `io_timeout_seconds` of accept (else 400). At 16 connections a
/// new one closes the longest-idle one, counted in
/// lfo_telemetry_shed_connections_total; accepts follow the serving
/// port's rule (util::accept_or_shed), failures counted in
/// lfo_telemetry_accept_errors_total. A stalled or trickling peer holds
/// one descriptor until its deadline and cannot delay other scrapes —
/// /healthz in particular stays prompt (tests/test_telemetry_server.cpp
/// locks this down with deliberately slow clients). Endpoints:
///
///   GET /metrics            Prometheus text exposition (exporters.cpp)
///   GET /stats              JSON snapshot + build info
///   GET /healthz            200/503 from the health callback
///   GET /vars?name=<m>      single metric as a bare value
///   GET /trace              chrome://tracing JSON dump
///
/// Every handler is a pure registry read (plus the read-only
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

  /// Bind + listen + start the loop thread. Returns false (with the
  /// reason in last_error()) if the port is taken or sockets fail.
  bool start();
  /// Stop the loop, join its thread, close every socket. Idempotent.
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
  struct Connection;
  using Clock = std::chrono::steady_clock;

  /// The event loop, until stop() wakes it.
  void run();
  /// Accept under util::accept_or_shed, shedding at the cap.
  void accept_connection();
  /// Run a connection until its socket would block; false closes it.
  bool advance(Connection& conn) const;
  /// Answer or close connections past their deadline, re-arm a backed-off
  /// accept; ms to the next deadline (-1: none).
  int expire();

  TelemetryServerConfig config_;
  Clock::duration io_timeout_{};
  int listen_fd_ = -1;
  int wake_fd_ = -1;   ///< eventfd that stop() writes
  int epoll_fd_ = -1;  ///< watches the listener, wake_fd_, connections
  std::uint16_t port_ = 0;
  std::string last_error_;
  std::vector<std::unique_ptr<Connection>> connections_;  ///< loop-owned
  std::uint64_t tick_ = 0;  ///< event count behind last_active
  /// When expire() re-arms a backed-off accept.
  Clock::time_point accept_retry_ = Clock::time_point::max();
  std::thread thread_;  ///< runs run(), which uses the members above
};

/// Minimal loopback HTTP GET for tests and the bench scraper thread:
/// connects to 127.0.0.1:port, sends `GET <target>`, returns the raw
/// response (status line + headers + body) or an empty string on any
/// socket failure.
std::string fetch_local(std::uint16_t port, std::string_view target,
                        double timeout_seconds = 2.0);

}  // namespace lfo::obs

#endif  // LFO_OBS_TELEMETRY_SERVER_HPP
